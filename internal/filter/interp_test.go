package filter

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dice/internal/bgp"
	"dice/internal/concolic"
)

// Run and RunWithCoverage are one interpreter; these tests hold the two
// entry points to the same verdicts and Run's hot path to its allocation
// count.

// genCond writes a random condition over every field, prefix matches and
// community tests, with small constants so both outcomes are common.
func genCond(rng *rand.Rand, depth int) string {
	if depth > 0 && rng.Intn(3) == 0 {
		x, y := genCond(rng, depth-1), genCond(rng, depth-1)
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("(%s && %s)", x, y)
		case 1:
			return fmt.Sprintf("(%s || %s)", x, y)
		}
		return "!" + x
	}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	op := ops[rng.Intn(len(ops))]
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("net ~ 10.%d.0.0/16{16,%d}", rng.Intn(4), 16+rng.Intn(17))
	case 1:
		return fmt.Sprintf("net.len %s %d", op, 8+rng.Intn(25))
	case 2:
		return fmt.Sprintf("bgp_path.len %s %d", op, rng.Intn(6))
	case 3:
		return fmt.Sprintf("bgp_path.origin %s %d", op, 65000+rng.Intn(4))
	case 4:
		return fmt.Sprintf("origin %s %d", op, rng.Intn(3))
	case 5:
		return fmt.Sprintf("local_pref %s %d", op, 50+50*rng.Intn(4))
	case 6:
		return fmt.Sprintf("med %s %d", op, rng.Intn(4))
	}
	return fmt.Sprintf("community (65000, %d)", rng.Intn(4))
}

// genStmts writes n random statements; nested blocks shrink with depth,
// and a terminal action never hides a statement after it.
func genStmts(rng *rand.Rand, n, depth int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 5 && depth > 0:
			fmt.Fprintf(&b, "if %s then { %s}", genCond(rng, 2), genStmts(rng, 1+rng.Intn(3), depth-1))
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, " else { %s}", genStmts(rng, 1+rng.Intn(2), depth-1))
			}
			b.WriteString("\n")
		case k < 6:
			fmt.Fprintf(&b, "set local_pref %d; ", rng.Intn(300))
		case k < 7:
			fmt.Fprintf(&b, "set med %d; ", rng.Intn(10))
		case k < 8:
			fmt.Fprintf(&b, "set origin %d; ", rng.Intn(3))
		case k < 9:
			fmt.Fprintf(&b, "add community (65000, %d); ", rng.Intn(4))
		default:
			b.WriteString([]string{"accept; ", "reject; "}[rng.Intn(2)])
			return b.String()
		}
	}
	return b.String()
}

func genPolicy(t testing.TB, rng *rand.Rand, clauses int) *Filter {
	t.Helper()
	src := "filter gen {\n" + genStmts(rng, clauses, 3) + "}"
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	return f
}

// genSubject draws a concrete route from the ranges genCond tests.
func genSubject(rng *rand.Rand) *Subject {
	var comms []uint32
	for i := rng.Intn(3); i > 0; i-- {
		comms = append(comms, bgp.MakeCommunity(65000, uint16(rng.Intn(4))))
	}
	c := concolic.Concrete
	return &Subject{
		NetAddr:     c(uint64(10<<24|rng.Intn(4)<<16|rng.Intn(256)<<8), 32),
		NetLen:      c(uint64(8+rng.Intn(25)), 8),
		PathLen:     c(uint64(rng.Intn(6)), 16),
		OriginAS:    c(uint64(65000+rng.Intn(4)), 16),
		FirstAS:     c(uint64(65000+rng.Intn(4)), 16),
		Origin:      c(uint64(rng.Intn(3)), 8),
		LocalPref:   c(uint64(50+50*rng.Intn(4)), 32),
		MED:         c(uint64(rng.Intn(4)), 32),
		Communities: comms,
	}
}

func TestRunAndCoverageAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for p := 0; p < 20; p++ {
		f := genPolicy(t, rng, 12)
		cov := NewCoverage()
		branches := 0
		for i := 0; i < 200; i++ {
			s := genSubject(rng)
			got, want := RunWithCoverage(f, s, ConcreteBrancher{}, cov), Run(f, s, ConcreteBrancher{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("policy %d, subject %+v:\nRun             %+v\nRunWithCoverage %+v\n%s", p, s, want, got, f)
			}
			branches += want.BranchesTaken
		}
		tallied := 0
		for _, sc := range cov.Sites() {
			tallied += sc.True + sc.False
		}
		if tallied != branches {
			t.Fatalf("policy %d: coverage tallied %d branches, the verdicts took %d", p, tallied, branches)
		}
	}
}

// TestRunAllocs pins Run's allocations on a generated policy: every set
// statement's value and every added community, nothing for the coverage
// the run does not keep.
func TestRunAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := genPolicy(t, rng, 24)
	s := genSubject(rng)
	allocs := testing.AllocsPerRun(100, func() { Run(f, s, ConcreteBrancher{}) })
	if allocs != runAllocs {
		t.Fatalf("Run allocates %v times per call, want %d\n%s", allocs, runAllocs, f)
	}
	if v := Run(f, s, ConcreteBrancher{}); v.BranchesTaken != 21 {
		t.Fatalf("the pinned route takes %d branches, want 21: the policy generator changed", v.BranchesTaken)
	}
}

// runAllocs is Run's count on that policy and route (21 branches, a path
// through set and add community statements) when the interpreter had a
// copy for coverage; one interpreter must not cost Run anything.
const runAllocs = 22

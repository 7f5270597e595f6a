package filter

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/netaddr"
	"dice/internal/sym"
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

// The site memo (memo.go) must be invisible: a condition evaluated
// through memos that earlier runs filled returns the concrete value and
// the term (sym.Equal) a fresh tree builds, whose every site misses.

// memoPool is the small pool of terms memoSubject draws symbolic fields
// from: each field's own input variable, and the address masked to one
// of 12 lengths (more than memoWays, so a prefix-match site evicts). Few
// enough terms that keys repeat from subject to subject.
var memoPool = struct {
	addr     []sym.Expr
	len      sym.Expr
	pathLen  sym.Expr
	originAS sym.Expr
	firstAS  sym.Expr
	origin   sym.Expr
	lp, med  sym.Expr
	comm     sym.Expr
}{
	addr: func() []sym.Expr {
		v := sym.NewVar(0, "addr", 32)
		out := make([]sym.Expr, 12)
		for i := range out {
			out[i] = sym.NewBin(sym.OpAnd, v, sym.NewConst(uint64(uint32(netaddr.Mask(14+i))), 32))
		}
		return out
	}(),
	len:      sym.NewVar(1, "len", 8),
	pathLen:  sym.NewVar(2, "path_len", 16),
	originAS: sym.NewVar(3, "origin_as", 16),
	firstAS:  sym.NewVar(4, "first_as", 16),
	origin:   sym.NewVar(5, "origin", 8),
	lp:       sym.NewVar(6, "lp", 32),
	med:      sym.NewVar(7, "med", 32),
	comm:     sym.NewVar(8, "community", 32),
}

// memoSubject draws a concrete route (genSubject) and makes each field
// symbolic with probability ½, its term from memoPool; the path origin is
// sometimes widened to 32 bits.
func memoSubject(rng *rand.Rand) *Subject {
	s := genSubject(rng)
	for _, f := range []struct {
		v *concolic.Value
		s sym.Expr
	}{
		{&s.NetAddr, memoPool.addr[rng.Intn(len(memoPool.addr))]},
		{&s.NetLen, memoPool.len},
		{&s.PathLen, memoPool.pathLen},
		{&s.OriginAS, memoPool.originAS},
		{&s.FirstAS, memoPool.firstAS},
		{&s.Origin, memoPool.origin},
		{&s.LocalPref, memoPool.lp},
		{&s.MED, memoPool.med},
	} {
		if rng.Intn(2) == 0 {
			f.v.S = f.s
		}
	}
	if rng.Intn(4) == 0 {
		// The same term at another width is another key: a comparison's
		// constant takes the field's width.
		s.OriginAS = concolic.Extend(s.OriginAS, 32)
	}
	if rng.Intn(2) == 0 {
		s.SymCommunity = concolic.Value{C: uint64(bgp.MakeCommunity(65000, uint16(rng.Intn(4)))), S: memoPool.comm, W: 32}
	}
	return s
}

func parseCond(src string) (Expr, error) {
	f, err := Parse("filter c { if " + src + " then accept; }")
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, src)
	}
	return f.Stmts[0].(*IfStmt).Cond, nil
}

// memoStores sums the entries every site of e has stored so far.
func memoStores(e Expr) uint32 {
	switch t := e.(type) {
	case *NotExpr:
		return t.memo.next.Load() + memoStores(t.X)
	case *AndExpr:
		return t.memo.next.Load() + memoStores(t.X) + memoStores(t.Y)
	case *OrExpr:
		return t.memo.next.Load() + memoStores(t.X) + memoStores(t.Y)
	case *CmpExpr:
		return t.memo.next.Load()
	case *MatchExpr:
		return t.memo.next.Load()
	}
	return 0
}

// checkMemoParity evaluates `draws` memoSubjects through the shared tree
// cond and through a fresh parse of src each.
func checkMemoParity(rng *rand.Rand, src string, cond Expr, draws int) error {
	for i := 0; i < draws; i++ {
		fresh, err := parseCond(src)
		if err != nil {
			return err
		}
		s := memoSubject(rng)
		got, want := evalExpr(cond, s, nil), evalExpr(fresh, s, nil)
		if got.C != want.C || got.W != want.W || (got.S == nil) != (want.S == nil) || (got.S != nil && !sym.Equal(got.S, want.S)) {
			return fmt.Errorf("%s on %+v:\nmemoized %v\nfresh    %v", src, s, got, want)
		}
	}
	return nil
}

// FuzzMemoParity holds memoized evaluation to a fresh tree's on random
// conditions and subjects. A subject evaluated twice in a row must hit
// every site the second time.
func FuzzMemoParity(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		src := genCond(rng, 3)
		cond, err := parseCond(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkMemoParity(rng, src, cond, 200); err != nil {
			t.Fatal(err)
		}
		s := memoSubject(rng)
		first := evalExpr(cond, s, nil)
		stored := memoStores(cond)
		if again := evalExpr(cond, s, nil); again != first || memoStores(cond) != stored {
			t.Fatalf("%s on %+v: a repeated evaluation stored %d entries, %v then %v",
				src, s, memoStores(cond)-stored, first, again)
		}
	})
}

// TestMemoEvicts: a prefix-match site sees more address terms than it
// has slots, and parity holds past its evictions.
func TestMemoEvicts(t *testing.T) {
	const src = "net ~ 10.0.0.0/8{16,24} && med < 3"
	cond, err := parseCond(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMemoParity(rand.New(rand.NewSource(1)), src, cond, 400); err != nil {
		t.Fatal(err)
	}
	if n := cond.(*AndExpr).X.(*MatchExpr).memo.next.Load(); n <= memoWays {
		t.Fatalf("the match site stored %d entries; nothing was evicted from its %d slots", n, memoWays)
	}
}

// TestMemoParityConcurrent: four goroutines share one parsed condition,
// as exploration workers share a router's filters; run it under -race.
func TestMemoParityConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 8; c++ {
		src := genCond(rng, 3)
		cond, err := parseCond(src)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				if err := checkMemoParity(rand.New(rand.NewSource(seed)), src, cond, 100); err != nil {
					t.Error(err)
				}
			}(int64(c*4 + g))
		}
		wg.Wait()
	}
}

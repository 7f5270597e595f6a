package solver_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dice/internal/solver"
	"dice/internal/sym"
)

// orderings returns cs in its given order, reversed, every rotation and
// a few seeded shuffles.
func orderings(cs []sym.Expr, rng *rand.Rand) [][]sym.Expr {
	n := len(cs)
	out := make([][]sym.Expr, 0, n+5)
	rev := make([]sym.Expr, n)
	for i, c := range cs {
		rev[n-1-i] = c
	}
	out = append(out, cs, rev)
	for r := 1; r < n; r++ {
		out = append(out, append(append([]sym.Expr{}, cs[r:]...), cs[:r]...))
	}
	for k := 0; k < 3; k++ {
		sh := append([]sym.Expr{}, cs...)
		rng.Shuffle(n, func(i, j int) { sh[i], sh[j] = sh[j], sh[i] })
		out = append(out, sh)
	}
	return out
}

// checkOrderFree propagates every ordering of cs to fixpoint and
// requires one answer: the same feasibility and the same cells. Where
// the sweep converges inside the 64 sweeps' work the production worklist
// is allowed, Analyze must give that answer too.
func checkOrderFree(t *testing.T, name string, cs []sym.Expr, rng *rand.Rand) {
	t.Helper()
	want, sweeps, ok := solver.Fixpoint(cs)
	for _, o := range orderings(cs, rng) {
		got, _, gok := solver.Fixpoint(o)
		if gok != ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reordered fixpoint (feasible %v) %v\nin order given (feasible %v) %v\nconstraints: %v\nreordered: %v",
				name, gok, got, ok, want, cs, o)
		}
	}
	if sweeps >= 63 {
		return // past the work bound the answer may depend on the order
	}
	if got, gok := solver.Analyze(cs); gok != ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Analyze (feasible %v) %v, fixpoint (feasible %v) %v\nconstraints: %v", name, gok, got, ok, want, cs)
	}
}

// TestFixpointOrderFree: propagation reaches one fixpoint whatever the
// order of the conjunction — every negation and oracle query the deep16
// policy implies, and seeded draws from FuzzSolverUnsatIsReal's
// generator, propagated in order, reversed, rotated and shuffled, end in
// identical cells. That is what lets a worklist wake constraints in any
// order and a prefix chain propagate one link at a time without moving a
// model; a failure here is a propagator that is not monotone.
func TestFixpointOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range deep16Paths(t) {
		base := p.Constraints()
		for i := range p.Path {
			q := append(base[:len(p.Assumes)+i:len(p.Assumes)+i], sym.NewNot(p.Path[i]))
			checkOrderFree(t, fmt.Sprintf("path %d negate %d", p.Seq, i), q, rng)
		}
		checkOrderFree(t, fmt.Sprintf("path %d oracle", p.Seq), append(base[:len(base):len(base)], noExport), rng)
	}
	for i := 0; i < 3000; i++ {
		checkOrderFree(t, fmt.Sprintf("draw %d", i), solver.RandomConjunction(rng), rng)
	}
}

package concolic

import (
	"testing"

	"dice/internal/sym"
)

// foldTwoPaths folds two independent two-predicate paths into a frontier
// and returns the negated-constraint names in pop (drain) order.
func foldTwoPaths(strategy Strategy) []string {
	f := newFrontier(strategy, nil)
	mk := func(id int, name string) sym.Expr {
		return sym.NewCmp(sym.OpEq, &sym.Var{ID: id, Name: name, W: 8}, sym.NewConst(1, 8))
	}
	pathA := []sym.Expr{mk(0, "a0"), mk(1, "a1")}
	pathB := []sym.Expr{mk(2, "b0"), mk(3, "b1")}
	f.fold(nil, pathA, sym.Env{}, 0)
	f.fold(nil, pathB, sym.Env{}, 0)

	var order []string
	for {
		it, ok := f.pop()
		if !ok {
			return order
		}
		// The negation of (var == 1) folds to (var != 1); recover the name.
		order = append(order, it.negated.(*sym.Cmp).X.(*sym.Var).Name)
	}
}

// TestFrontierDrainOrder pins the strategy semantics: DFS drains deepest
// predicates first (globally), BFS shallowest first, and Generational
// drains the newest generation first, deepest-first within it.
func TestFrontierDrainOrder(t *testing.T) {
	cases := []struct {
		strategy Strategy
		want     []string
	}{
		{DFS, []string{"b1", "a1", "b0", "a0"}},
		{BFS, []string{"b0", "a0", "b1", "a1"}},
		{Generational, []string{"b1", "b0", "a1", "a0"}},
	}
	for _, c := range cases {
		got := foldTwoPaths(c.strategy)
		if len(got) != len(c.want) {
			t.Fatalf("%v: drained %v, want %v", c.strategy, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v: drain order %v, want %v", c.strategy, got, c.want)
				break
			}
		}
	}
}

// TestFrontierDedupsAttempts: folding the same path twice schedules its
// negations only once, and a duplicate path is not fresh.
func TestFrontierDedupsAttempts(t *testing.T) {
	f := newFrontier(Generational, nil)
	path := []sym.Expr{
		sym.NewCmp(sym.OpEq, &sym.Var{ID: 0, Name: "x", W: 8}, sym.NewConst(1, 8)),
	}
	if !f.fold(nil, path, sym.Env{}, 0) {
		t.Fatal("first fold not fresh")
	}
	if f.pending() != 1 {
		t.Fatalf("pending = %d, want 1", f.pending())
	}
	if f.fold(nil, path, sym.Env{}, 0) {
		t.Fatal("duplicate path reported fresh")
	}
	if f.pending() != 1 {
		t.Fatalf("duplicate fold re-scheduled: pending = %d", f.pending())
	}
}

// BenchmarkFrontierFold is the regression benchmark for per-branch key
// construction cost: folding a path of depth d must be O(d) total — the
// seed code rebuilt an O(path)-sized signature per branch point, making
// every fold quadratic in path depth. allocs/op is the headline metric.
func BenchmarkFrontierFold(b *testing.B) {
	const depth = 64
	x := &sym.Var{ID: 0, Name: "x", W: 64}
	path := make([]sym.Expr, depth)
	for i := range path {
		path[i] = sym.NewCmp(sym.OpEq,
			sym.NewBin(sym.OpAnd, sym.NewBin(sym.OpShr, x, sym.NewConst(uint64(i), 64)), sym.NewConst(1, 64)),
			sym.NewConst(1, 64))
	}
	env := sym.Env{0: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := newFrontier(Generational, nil)
		f.fold(nil, path, env, 0)
	}
}

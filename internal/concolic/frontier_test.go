package concolic

import (
	"slices"
	"testing"

	"dice/internal/sym"
)

// TestFrontierDrainOrder pins the one drain order: two independent
// two-predicate paths folded into a frontier pop the newest path's
// negations first, deepest-first within it.
func TestFrontierDrainOrder(t *testing.T) {
	f := newFrontier(nil)
	mk := func(id int, name string) sym.Expr {
		return sym.NewCmp(sym.OpEq, &sym.Var{ID: id, Name: name, W: 8}, sym.NewConst(1, 8))
	}
	f.fold(nil, []sym.Expr{mk(0, "a0"), mk(1, "a1")}, sym.Env{}, 0)
	f.fold(nil, []sym.Expr{mk(2, "b0"), mk(3, "b1")}, sym.Env{}, 0)

	var got []string
	for {
		it, ok := f.pop()
		if !ok {
			break
		}
		// The negation of (var == 1) folds to (var != 1); recover the name.
		got = append(got, it.negated.(*sym.Cmp).X.(*sym.Var).Name)
	}
	if want := []string{"b1", "b0", "a1", "a0"}; !slices.Equal(got, want) {
		t.Errorf("drain order %v, want %v", got, want)
	}
}

// TestFrontierDedupsAttempts: folding the same path twice schedules its
// negations only once, and a duplicate path is not fresh.
func TestFrontierDedupsAttempts(t *testing.T) {
	f := newFrontier(nil)
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
		f := newFrontier(nil)
		f.fold(nil, path, env, 0)
	}
}

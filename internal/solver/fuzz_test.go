package solver

import (
	"fmt"
	"reflect"
	"testing"

	"dice/internal/sym"
)

// fuzzLayouts are the variable layouts the fuzz target draws from: every
// variable of one layout has the same width (the concolic layer mixes
// widths only through explicit extension), and a layout's widths sum to
// at most 16 bits, so its whole domain can be enumerated.
var fuzzLayouts = [][2]int{ // {variables, width}
	{1, 16}, {2, 8}, {3, 5}, {4, 4}, {2, 6}, {1, 8}, {4, 3}, {8, 2},
}

// fuzzNodes is the search budget under fuzzing: enough for the solver to
// finish on most draws, small enough that one that does not costs
// milliseconds (Unknown is a legal answer).
const fuzzNodes = 4096

// fuzzGen draws a constraint set from fuzz bytes. Running out of bytes
// reads zeros, so every input decodes to something.
type fuzzGen struct {
	data []byte
	vars []*sym.Var
	w    int
}

func (g *fuzzGen) byte() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

func (g *fuzzGen) konst() sym.Expr {
	return sym.NewConst(uint64(g.byte())<<8|uint64(g.byte()), g.w)
}

// term draws a bitvector term: a variable, a constant, or an operator
// over two smaller terms (constant right operands are favoured — the
// shapes backProp inverts).
func (g *fuzzGen) term(depth int) sym.Expr {
	k := g.byte()
	if depth == 0 || k%4 == 0 {
		if k%8 == 4 {
			return g.konst()
		}
		return g.vars[(k/8)%len(g.vars)]
	}
	op := sym.BinOp((k / 4) % int(sym.OpShr+1))
	x := g.term(depth - 1)
	var y sym.Expr
	if k >= 128 {
		y = g.term(depth - 1)
	} else {
		y = g.konst()
	}
	return sym.NewBin(op, x, y)
}

// formula draws a boolean constraint: a comparison, or a connective /
// negation over smaller formulas.
func (g *fuzzGen) formula(depth int) sym.Expr {
	k := g.byte()
	if depth > 0 {
		switch k % 8 {
		case 0:
			return sym.NewBool(sym.OpLAnd, g.formula(depth-1), g.formula(depth-1))
		case 1:
			return sym.NewBool(sym.OpLOr, g.formula(depth-1), g.formula(depth-1))
		case 2:
			return sym.NewNot(g.formula(depth - 1))
		}
	}
	return sym.NewCmp(sym.CmpOp((k/8)%int(sym.OpGe+1)), g.term(2), g.term(1))
}

// drawConjunction draws a layout, its variables and one to five
// formulas from data.
func drawConjunction(data []byte) (*fuzzGen, []sym.Expr) {
	g := &fuzzGen{data: data}
	layout := fuzzLayouts[g.byte()%len(fuzzLayouts)]
	g.w = layout[1]
	for i := 0; i < layout[0]; i++ {
		g.vars = append(g.vars, sym.NewVar(i, "f", g.w))
	}
	var cs []sym.Expr
	for n := 1 + g.byte()%5; n > 0; n-- {
		cs = append(cs, g.formula(2))
	}
	return g, cs
}

// satisfiable enumerates the layout's whole domain.
func satisfiable(vars []*sym.Var, w int, cs []sym.Expr) bool {
	env := make(sym.Env, len(vars))
	total := uint64(1) << uint(len(vars)*w)
	mask := uint64(1)<<uint(w) - 1
next:
	for a := uint64(0); a < total; a++ {
		for i, v := range vars {
			env[v.ID] = (a >> uint(i*w)) & mask
		}
		for _, c := range cs {
			if !sym.EvalBool(c, env) {
				continue next
			}
		}
		return true
	}
	return false
}

// FuzzSolverUnsatIsReal checks the solver's two promises on random
// constraint sets small enough to enumerate: a Sat model satisfies every
// constraint under sym.EvalBool and stays inside each variable's width,
// and an Unsat is real — no assignment in the whole domain satisfies the
// set. (Unknown promises nothing.) Both entry points are held to it:
// Solve, and SolvePrefixed on a solver that has already answered the
// set's shorter prefixes, with a hint drawn from the input. An unreal
// Unsat is a silently lost path, which no golden would ever show.
func FuzzSolverUnsatIsReal(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 3, 9, 17, 0, 42, 8, 1, 0, 7})
	f.Add([]byte{2, 4, 0, 21, 5, 0, 200, 6, 1, 16, 13, 0, 3, 4, 2, 29, 0, 1})
	f.Add([]byte{3, 5, 2, 8, 37, 150, 44, 1, 12, 61, 0, 255, 1, 9, 9, 0, 2, 77, 3, 3})
	f.Add([]byte{7, 2, 1, 0, 9, 133, 45, 12, 0, 1, 180, 250, 33, 7, 7, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, cs := drawConjunction(data)
		hint := sym.Env{}
		for _, v := range g.vars {
			hint[v.ID] = uint64(g.byte()) & (uint64(1)<<uint(g.w) - 1)
		}

		check := func(how string, env sym.Env, res Result) {
			switch res {
			case Sat:
				for _, c := range cs {
					if !sym.EvalBool(c, env) {
						t.Fatalf("%s: Sat model %v violates %s\nconstraints: %v", how, env, c, cs)
					}
				}
				for id, val := range env {
					if val>>uint(g.w) != 0 {
						t.Fatalf("%s: model binds var %d to %d, outside %d bits", how, id, val, g.w)
					}
				}
			case Unsat:
				if satisfiable(g.vars, g.w, cs) {
					t.Fatalf("%s: Unsat, but the constraints have a model\nconstraints: %v", how, cs)
				}
			}
		}
		env, res := New(Options{MaxNodes: fuzzNodes}).Solve(cs)
		check("Solve", env, res)

		chained := New(Options{MaxNodes: fuzzNodes})
		for i := 1; i < len(cs); i++ {
			chained.SolvePrefixed(cs[:i:i], hint)
		}
		env, res = chained.SolvePrefixed(cs, hint)
		check("SolvePrefixed", env, res)
	})
}

// parityNodes is FuzzPrefixedMatchesHinted's search budget: it solves
// each draw eight times over, and an exhausted budget is an answer the
// entry points must agree on too.
const parityNodes = 1024

// searched answers cs by search alone, without firstModel's shortcut —
// the reference the shortcut is held to — on the solver it returns.
func searched(cs []sym.Expr, hint sym.Env, nodes int) (sym.Env, Result, *Solver) {
	s := New(Options{MaxNodes: nodes})
	q, st, live, ok := s.fromScratch(cs, true)
	if !ok {
		return nil, Unsat, s
	}
	budget, complete := nodes, true
	if env, ok := s.search(q, st, live, hint, &budget, &complete); ok {
		return env, Sat, s
	}
	if budget <= 0 || !complete {
		return nil, Unknown, s
	}
	return nil, Unsat, s
}

// FuzzPrefixedMatchesHinted holds the incremental entry points to the
// from-scratch one on random conjunctions: one reused solver answers cs
// through SolvePrefixed, and through SolveExtended split at every point
// (the prefix from the snapshot chain, the rest as extras that are never
// cached), and each answer — Result and model — must be what a fresh
// SolveHinted gives, and that what search alone finds; the region of
// every prefix read off the chain (Solver.Analyze) must be the package
// Analyze's. The same solver then builds sibling links — every prefix
// followed by each later suffix — reads their regions twice and solves
// through them, so a link that shared a sibling's storage shows. The
// fixpoint is one whatever order propagation ran in
// (TestFixpointOrderFree), so caching, the worklist and the active set
// move nothing — short of the work bound: a draw on which any
// propagation stopped there (a slowly converging cycle such as x < x,
// 0.8 % of random draws) may legitimately differ, and is held only to
// FuzzSolverUnsatIsReal's soundness.
func FuzzPrefixedMatchesHinted(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 3, 9, 17, 0, 42, 8, 1, 0, 7})
	f.Add([]byte{2, 4, 0, 21, 5, 0, 200, 6, 1, 16, 13, 0, 3, 4, 2, 29, 0, 1})
	f.Add([]byte{3, 5, 2, 8, 37, 150, 44, 1, 12, 61, 0, 255, 1, 9, 9, 0, 2, 77, 3, 3})
	f.Add([]byte{7, 2, 1, 0, 9, 133, 45, 12, 0, 1, 180, 250, 33, 7, 7, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, cs := drawConjunction(data)
		hint := sym.Env{}
		for _, v := range g.vars {
			hint[v.ID] = uint64(g.byte()) & (uint64(1)<<uint(g.w) - 1)
		}
		fresh := New(Options{MaxNodes: parityNodes})
		wantEnv, wantRes := fresh.SolveHinted(cs, hint)
		if fresh.capped > 0 {
			return // skipped below anyway; such draws are slow to answer
		}
		want := fmt.Sprint(wantRes, wantEnv)
		refEnv, refRes, ref := searched(cs, hint, parityNodes)

		reused := New(Options{MaxNodes: parityNodes})
		var got []string
		env, res := reused.SolvePrefixed(cs, hint)
		got = append(got, fmt.Sprint(res, env))
		for k := 0; k <= len(cs); k++ {
			env, res := reused.SolveExtended(cs[:k:k], cs[k:], hint)
			got = append(got, fmt.Sprint(res, env))
		}
		var regions []string
		scratch := New(Options{})
		for k := 0; k <= len(cs); k++ {
			info, ok := reused.Analyze(cs[:k:k])
			wantInfo, wantOK := scratch.analyze(cs[:k])
			if ok != wantOK || !reflect.DeepEqual(info, wantInfo) {
				regions = append(regions, fmt.Sprintf("prefix[:%d]: chain (feasible %v) %v, Analyze (feasible %v) %v", k, ok, info, wantOK, wantInfo))
			}
		}
		// Sibling links: each cs[:k] followed by every suffix cs[j:], read
		// twice, so links under one parent are built beside each other and
		// read again once their siblings have grown. Then cs, and cs
		// without each one constraint, are solved through them.
		var siblings []string
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < len(cs); k++ {
				for j := k; j < len(cs); j++ {
					p := append(cs[:k:k], cs[j:]...)
					info, ok := reused.Analyze(p)
					wantInfo, wantOK := scratch.analyze(p)
					if ok != wantOK || !reflect.DeepEqual(info, wantInfo) {
						siblings = append(siblings, fmt.Sprintf("pass %d, %v: chain (feasible %v) %v, Analyze (feasible %v) %v", pass, p, ok, info, wantOK, wantInfo))
					}
				}
			}
		}
		for k := 0; k <= len(cs); k++ {
			p := cs
			if k < len(cs) {
				p = append(cs[:k:k], cs[k+1:]...)
			}
			env, res := reused.SolvePrefixed(p, hint)
			wantEnv, wantRes := fresh.SolveHinted(p, hint)
			if g, w := fmt.Sprint(res, env), fmt.Sprint(wantRes, wantEnv); g != w {
				siblings = append(siblings, fmt.Sprintf("%v: SolvePrefixed answers %s, a fresh SolveHinted %s", p, g, w))
			}
		}
		if fresh.capped+reused.capped+ref.capped+scratch.capped > 0 {
			return // past the work bound, answers may depend on the work's order
		}
		if alone := fmt.Sprint(refRes, refEnv); alone != want {
			t.Fatalf("SolveHinted answers %s, search alone %s\nconstraints: %v\nhint: %v", want, alone, cs, hint)
		}
		for i, g := range got {
			if g != want {
				how := "SolvePrefixed"
				if i > 0 {
					how = fmt.Sprintf("SolveExtended split at %d", i-1)
				}
				t.Fatalf("%s answers %s, a fresh SolveHinted %s\nconstraints: %v", how, g, want, cs)
			}
		}
		if len(regions) > 0 {
			t.Fatalf("%s\nconstraints: %v", regions[0], cs)
		}
		if len(siblings) > 0 {
			t.Fatalf("sibling links: %s\nconstraints: %v", siblings[0], cs)
		}
	})
}

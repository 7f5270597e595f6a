package solver

import (
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

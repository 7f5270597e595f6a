package solver

import (
	"math/rand"

	"dice/internal/sym"
)

// Fixpoint propagates cs, in the order given, sweep after sweep with no
// round cap until a sweep changes nothing, and returns every variable's
// region and the number of sweeps that changed something. It is the
// reference the order-free and worklist tests hold propagation to:
// monotone propagators reach one greatest fixpoint whatever the order.
func Fixpoint(cs []sym.Expr) (info map[int]VarInfo, sweeps int, ok bool) {
	st := newState(8)
	var vars []*sym.Var
	for _, c := range cs {
		vars = st.declare(c, vars)
	}
	for changed := true; changed; {
		changed = false
		for _, c := range cs {
			ch, ok, _ := propagate(c, true, st)
			if !ok {
				return nil, sweeps, false
			}
			changed = changed || ch
		}
		if changed {
			sweeps++
		}
	}
	info = make(map[int]VarInfo, len(vars))
	for _, v := range vars {
		c := st.cells[v.ID]
		info[v.ID] = VarInfo{Lo: c.iv.Lo, Hi: c.iv.Hi, One: c.bits.one, Zero: c.bits.zero, Width: v.W}
	}
	return info, sweeps, true
}

// RandomConjunction draws a constraint set from FuzzSolverUnsatIsReal's
// generator, fed from rng.
func RandomConjunction(rng *rand.Rand) []sym.Expr {
	data := make([]byte, 48)
	rng.Read(data)
	_, cs := drawConjunction(data)
	return cs
}

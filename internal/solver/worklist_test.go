package solver

import (
	"math/rand"
	"testing"
)

// TestEntailedMatchesEvalFormula: the entailment propagate reports after
// a no-op is evalFormula's verdict — the rule that retires a constraint
// from the live set must be the one the worklist design argues from. It
// is checked on random conjunctions at random search-like states: every
// variable declared, some fixed or narrowed, everything propagated.
func TestEntailedMatchesEvalFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checked, entailed := 0, 0
	for draw := 0; draw < 20000; draw++ {
		data := make([]byte, 48)
		rng.Read(data)
		g, cs := drawConjunction(data)
		st := newState(8)
		for _, c := range cs {
			st.declare(c, nil)
		}
		for _, v := range g.vars {
			switch rng.Intn(3) {
			case 0:
				val := uint64(rng.Int63()) & full(v.W).Hi
				st.set(v.ID, Interval{val, val})
			case 1:
				lo := uint64(rng.Int63()) & full(v.W).Hi
				st.set(v.ID, Interval{lo, full(v.W).Hi})
			}
		}
		for _, c := range cs {
			for _, want := range []bool{true, false} {
				nd := st.clone()
				_, ok, ent := propagate(c, want, nd)
				if !ok || len(nd.moved) != 0 {
					continue
				}
				checked++
				v, known := evalFormula(c, nd)
				if ent != (known && v == want) {
					t.Fatalf("%v want %v: propagate says entailed=%v, evalFormula says %v (known %v)", c, want, ent, v, known)
				}
				if ent {
					entailed++
				}
			}
		}
	}
	if checked < 10000 || entailed < 1000 {
		t.Fatalf("only %d no-op propagations checked, %d entailed", checked, entailed)
	}
}

// Worklist propagation. A conjunction's fixpoint is reached by waking
// only what a change can affect: every constraint is indexed under the
// variables it mentions, a propagation starts from the constraints just
// added or the cell just moved, and a propagation that moves a cell
// wakes the constraints that mention it — never a sweep over the whole
// conjunction. Propagators are monotone (TestFixpointOrderFree), so the
// order constraints wake in does not change the fixpoint, and every model
// stays what the sweep-until-quiet propagation it replaced found.
//
// A constraint found entailed — evalFormula decides it true and its
// propagate is a no-op — leaves the live set for good: both facts
// survive any narrowing of the domains, so it is dead for the whole
// subtree of the search node or prefix snapshot that found it, and is
// never woken again there. Only the final model check reads it.
package solver

import (
	"slices"

	"dice/internal/sym"
)

// workPerConstraint bounds one fixpoint's propagations at this many per
// live constraint — the work of the 64 sweeps over the conjunction the
// worklist replaced. Past it propagation stops where it is: sound, only
// weaker.
const workPerConstraint = 64

// occ is one occurrence of a variable in a conjunction: constraint c
// mentions it, and next is the previous constraint that does. The lists
// are persistent: a prefix-chain link pushes its constraint onto copies of
// its parent's list heads and shares every older node, so extending a
// prefix by one constraint costs that constraint's occurrences, never a
// copy of the index.
type occ struct {
	c    int32
	next *occ
}

// occChunk is how many occurrence nodes the solver allocates at once.
const occChunk = 256

// index is a conjunction's per-variable view, by variable ID. The slot
// of a variable lists, latest first, the constraints that mention it,
// and holds the constants the conjunction compares it against, sorted
// and distinct — the candidates search tries after the hint (solver.go).
// It is persistent like the occurrence lists: an index shared with a
// prefix snapshot is extended on a copy of its slots, and a constants
// list is replaced, never written. Built link by link along the prefix
// chain, the constants cost a query nothing.
type index []slot

type slot struct {
	head   *occ
	consts []uint64
}

// push adds constraint c, e, to ix: an occurrence of each variable it
// mentions and, with consts set, the constants it compares each against
// (a propagation that will not search, Analyze's, has no use for them).
// It writes ix's slots in place and returns ix, grown when e mentions a
// variable past its end.
func (s *Solver) push(ix index, e sym.Expr, c int32, consts bool) index {
	s.ids = mentions(e, s.ids[:0])
	for _, id := range s.ids {
		if int(id) >= len(ix) {
			ix = append(ix, make(index, int(id)+1-len(ix))...)
		}
		if len(s.occs) == cap(s.occs) {
			s.occs = make([]occ, 0, occChunk)
		}
		s.occs = append(s.occs, occ{c: c, next: ix[id].head})
		ix[id].head = &s.occs[len(s.occs)-1]
		if consts {
			s.found = s.found[:0]
			collectComparisonConsts(e, int(id), &s.found)
			ix[id].consts = merged(ix[id].consts, s.found)
		}
	}
	return ix
}

// merged returns the sorted, distinct union of list — itself sorted and
// distinct, and never written — and add, which it sorts in place; list
// itself when add brings nothing new.
func merged(list, add []uint64) []uint64 {
	slices.Sort(add)
	add = slices.Compact(add)
	n := 0
	for _, v := range add {
		if _, dup := slices.BinarySearch(list, v); !dup {
			n++
		}
	}
	if n == 0 {
		return list
	}
	out := make([]uint64, 0, len(list)+n)
	i, j := 0, 0
	for i < len(list) || j < len(add) {
		switch {
		case j == len(add) || i < len(list) && list[i] < add[j]:
			out = append(out, list[i])
			i++
		case i == len(list) || add[j] < list[i]:
			out = append(out, add[j])
			j++
		default:
			out = append(out, list[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// mentions appends to ids the IDs of the variables e mentions, each once.
func mentions(e sym.Expr, ids []int32) []int32 {
	switch t := e.(type) {
	case *sym.Var:
		for _, id := range ids {
			if id == int32(t.ID) {
				return ids
			}
		}
		return append(ids, int32(t.ID))
	case *sym.Bin:
		return mentions(t.Y, mentions(t.X, ids))
	case *sym.Cmp:
		return mentions(t.Y, mentions(t.X, ids))
	case *sym.BoolBin:
		return mentions(t.Y, mentions(t.X, ids))
	case *sym.Not:
		return mentions(t.X, ids)
	}
	return ids
}

// settle propagates st to the fixpoint of the live constraints of cs:
// active, and fresh — constraints just added, which are woken first.
// Next wake the constraints mentioning a variable in st.moved (set
// before the call, as a search trial's assignment is), and from then on
// every propagation that moves a cell wakes the live constraints that
// mention it; ix is cs's index. settle returns how many
// constraints it retired as entailed (survivors lists those left), and
// ok=false when a domain emptied: the conjunction is Unsat.
//
// The live set is stamped only once something wakes: a link of a prefix
// chain whose new constraint moves nothing costs one propagation, not a
// pass over the prefix.
func (s *Solver) settle(cs []sym.Expr, ix index, st *state, active, fresh []int32) (retired int, ok bool) {
	if len(s.live) < len(cs) {
		s.live = make([]uint32, 2*len(cs))
		s.queued = make([]uint32, 2*len(cs))
	}
	if s.gen++; s.gen == 0 { // wrapped: old stamps could read as current
		clear(s.live)
		clear(s.queued)
		s.gen = 1
	}
	gen := s.gen
	s.stamped = false
	if st.moved == nil {
		st.moved = s.moved[:0]
	}
	defer func() { s.moved, st.moved = st.moved[:0], nil }()

	q := s.queue[:0]
	for _, c := range fresh {
		s.live[c], s.queued[c] = gen, gen
		q = append(q, c)
	}
	q = s.wake(q, ix, st, active)
	work := workPerConstraint * (len(active) + len(fresh))
	for h := 0; h < len(q); h++ {
		c := q[h]
		s.queued[c] = 0
		if s.live[c] != gen {
			continue // entailed since it was queued
		}
		if work == 0 {
			s.capped++
			break
		}
		work--
		s.Propagations++
		_, ok, entailed := propagate(cs[c], true, st)
		if !ok {
			s.queue = q[:0]
			return retired, false
		}
		if len(st.moved) == 0 {
			if entailed {
				s.live[c] = 0
				retired++
			}
			continue
		}
		q = s.wake(q, ix, st, active)
	}
	s.queue = q[:0]
	return retired, true
}

// survivors appends to dst the constraints of active and fresh the last
// settle left live, in that order.
func (s *Solver) survivors(active, fresh, dst []int32) []int32 {
	for _, c := range active {
		if !s.stamped || s.live[c] == s.gen {
			dst = append(dst, c)
		}
	}
	for _, c := range fresh {
		if s.live[c] == s.gen {
			dst = append(dst, c)
		}
	}
	return dst
}

// wake queues the live constraints that mention a variable in st.moved
// and are not queued yet, and empties st.moved; the first wake stamps
// active live.
func (s *Solver) wake(q []int32, ix index, st *state, active []int32) []int32 {
	if len(st.moved) == 0 {
		return q
	}
	gen := s.gen
	if !s.stamped {
		for _, c := range active {
			s.live[c] = gen
		}
		s.stamped = true
	}
	for _, id := range st.moved {
		if int(id) >= len(ix) {
			continue
		}
		for o := ix[id].head; o != nil; o = o.next {
			if s.live[o.c] == gen && s.queued[o.c] != gen {
				s.queued[o.c] = gen
				q = append(q, o.c)
			}
		}
	}
	st.moved = st.moved[:0]
	return q
}

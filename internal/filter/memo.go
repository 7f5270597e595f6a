package filter

import (
	"sync/atomic"

	"dice/internal/concolic"
	"dice/internal/sym"
)

// An exploration runs the same filter once per path, and almost every
// symbolic term an `if` condition builds is one an earlier run of the
// round built already: the operands are the same input terms, so
// hash-consing hands back the same node, after hashing and looking up
// every sub-term again. Each expression site therefore remembers the
// terms it built, keyed by its operands' terms, and on a hit computes
// only the concrete half, through the same concolic operation on the
// operands' concrete values, and attaches the stored term. A fully
// concrete evaluation (the live node, the property language, a witness
// replay) builds no term and never touches the memo.

// memoWays is how many entries each site keeps. One is not enough: the
// exploration entry points mask the address input with the run's
// concrete prefix length (router's symbolicPrefix), so a prefix match
// sees one address term per length the exploration visits. Over three
// cold rounds of the 128-clause deep policy, one entry per site hit 30 %
// of lookups, four 91 % and eight 97 %; with eight, every miss fell in
// the first round, one per site and key.
const memoWays = 8

// operand is what a Value contributes to the term an operation builds:
// its term when it has one, else its concrete value (a constructor folds
// a concrete operand in: BoolAnd(x, false) builds False), and its width
// either way.
type operand struct {
	s sym.Expr
	c uint64
	w int
}

func operandOf(v concolic.Value) operand {
	if v.S != nil {
		return operand{s: v.S, w: v.W}
	}
	return operand{c: v.C, w: v.W}
}

// memoEntry is one immutable (operands → term) pair.
type memoEntry struct {
	x, y operand
	s    sym.Expr
}

// siteMemo is one site's entries. Runs on every worker share a parsed
// filter, so the slots are published atomically and an entry is never
// written after it is; a full memo overwrites its slots in turn. Keys
// compare terms by identity: a term that interning failed to share is a
// miss, never a wrong hit. A hit's term is the one a rebuild would
// construct from identical operands, so it cannot move a fingerprint, a
// path condition or a model.
type siteMemo struct {
	next  atomic.Uint32
	slots [memoWays]atomic.Pointer[memoEntry]
}

// apply returns op(x, y) for operands at least one of which is symbolic,
// reusing the site's term for these operands when it has one. op must
// build its term from the operands' terms alone, like every concolic
// operation.
func (m *siteMemo) apply(x, y concolic.Value, op func(x, y concolic.Value) concolic.Value) concolic.Value {
	kx, ky := operandOf(x), operandOf(y)
	for i := range m.slots {
		if e := m.slots[i].Load(); e != nil && e.x == kx && e.y == ky {
			v := op(concolic.Value{C: x.C, W: x.W}, concolic.Value{C: y.C, W: y.W})
			v.S = e.s
			return v
		}
	}
	v := op(x, y)
	m.slots[(m.next.Add(1)-1)%memoWays].Store(&memoEntry{x: kx, y: ky, s: v.S})
	return v
}

// Incremental prefix solving: sibling negation queries from one explored
// path share all constraints but the last predicate — the prefix-sharing
// observation behind incremental SMT (push/pop) in CREST/KLEE-style
// engines. Instead of re-propagating the whole conjunction from scratch
// per query, the solver propagates each shared prefix once into an
// immutable state snapshot and answers a negation by cloning that
// snapshot and propagating only the delta predicate.
//
// Snapshots are chained: the entry for prefix[:i+1] is built by
// extending the entry for prefix[:i] with one constraint, so exploring a
// path of depth d costs O(d) incremental propagations in total, and
// sibling paths (which share every constraint up to their fork) reuse
// the chain across queries. Entries are keyed by prefix fingerprint with
// structural verification, so a fingerprint collision rebuilds instead
// of reusing a wrong snapshot.
package solver

import (
	"slices"

	"dice/internal/sym"
)

// prefixEntry is one propagated prefix snapshot. st is the state after
// propagating cs to fixpoint — treated as immutable once stored (queries
// clone it) — and is nil when the prefix alone is infeasible. ix is cs's
// index (worklist.go). The live set — the constraints of cs not entailed
// at st — is live, the live ones before index from, plus every
// constraint from from on. A link that retires nothing shares its
// parent's live and from; only a link that retires something stores a
// list of its own. Nothing here is written once the entry is built.
type prefixEntry struct {
	cs   []sym.Expr
	vars []*sym.Var
	st   *state
	ix   index
	live []int32
	from int
}

// liveSet appends e's live constraints to dst, in index order.
func (e *prefixEntry) liveSet(dst []int32) []int32 {
	dst = append(dst, e.live...)
	for c := e.from; c < len(e.cs); c++ {
		dst = append(dst, int32(c))
	}
	return dst
}

// prefixCacheCap bounds the per-solver snapshot cache. The cache is an
// optimization only: on overflow it is reset, and future prefixes are
// re-propagated from scratch.
const prefixCacheCap = 4096

// SolvePrefixed solves the conjunction cs, treating cs[:len(cs)-1] as a
// shared prefix and the final element as the delta predicate: the prefix
// is propagated once into the solver's snapshot chain and reused across
// queries instead of re-propagating the whole conjunction from scratch.
// The scheduler routes every negation query through this entry point:
// all negations of one path hit the same chain, and sibling paths share
// it up to their fork. cs must not be mutated after the call (the
// snapshot chain keeps sub-slices of it).
func (s *Solver) SolvePrefixed(cs []sym.Expr, hint sym.Env) (sym.Env, Result) {
	if len(cs) == 0 {
		return sym.Env{}, Sat
	}
	return s.solveFromPrefix(s.prefixFor(cs[:len(cs)-1]), cs, hint)
}

// SolveExtended solves prefix ∧ extras: the prefix through the snapshot
// chain, as SolvePrefixed does, and the extras on a copy of its snapshot
// that is never cached — a path oracle asks one path condition many
// different extra questions (one per victim route, say), and none of
// them is a prefix a later query shares. It answers exactly what
// SolveHinted(prefix ∧ extras, hint) answers. prefix must not be mutated
// after the call; the conjunction itself is assembled in a buffer the
// solver reuses.
func (s *Solver) SolveExtended(prefix, extras []sym.Expr, hint sym.Env) (sym.Env, Result) {
	cs := append(append(s.cat[:0], prefix...), extras...)
	s.cat = cs
	return s.solveFromPrefix(s.prefixFor(prefix), cs, hint)
}

// Analyze is the package's Analyze answered from the snapshot chain: the
// region of every variable of prefix, read off its propagated snapshot.
// prefix must not be mutated after the call.
func (s *Solver) Analyze(prefix []sym.Expr) (map[int]VarInfo, bool) {
	pe := s.prefixFor(prefix)
	if pe.st == nil {
		return nil, false
	}
	return region(pe.vars, pe.st), true
}

// prefixFor returns the propagated snapshot for prefix, building missing
// chain links from the deepest cached ancestor.
func (s *Solver) prefixFor(prefix []sym.Expr) *prefixEntry {
	if s.prefixes == nil {
		s.prefixes = make(map[sym.Fingerprint]*prefixEntry, 64)
	}
	// Roll the per-level fingerprints once (integer work, no rendering).
	fps := s.fpScratch
	if cap(fps) < len(prefix)+1 {
		fps = make([]sym.Fingerprint, 0, len(prefix)*2+1)
	}
	fps = fps[:0]
	var f sym.Fingerprint
	fps = append(fps, f)
	for _, c := range prefix {
		f = f.Extend(c)
		fps = append(fps, f)
	}
	s.fpScratch = fps

	if e, ok := s.prefixes[fps[len(prefix)]]; ok && sym.PathsEqual(e.cs, prefix) {
		s.PrefixHits++
		return e
	}
	s.PrefixMisses++

	// Deepest cached ancestor, then extend one constraint at a time.
	start := 0
	cur := &prefixEntry{st: newState(0)}
	for i := len(prefix) - 1; i >= 1; i-- {
		if e, ok := s.prefixes[fps[i]]; ok && sym.PathsEqual(e.cs, prefix[:i]) {
			start, cur = i, e
			break
		}
	}
	for i := start; i < len(prefix); i++ {
		cur = s.extendPrefix(cur, prefix[:i+1])
		if len(s.prefixes) >= prefixCacheCap {
			s.prefixes = make(map[sym.Fingerprint]*prefixEntry, 64)
		}
		s.prefixes[fps[i+1]] = cur
	}
	return cur
}

// extendPrefix builds the snapshot for cs = parent.cs + one constraint:
// the parent's state is already a fixpoint of the shorter prefix, so
// settling it wakes the new constraint and whatever its refinements
// touch, not the prefix.
func (s *Solver) extendPrefix(parent *prefixEntry, cs []sym.Expr) *prefixEntry {
	e := &prefixEntry{cs: cs}
	if parent.st == nil {
		return e // ancestor already infeasible; so is every extension
	}
	i := int32(len(cs) - 1)
	e.st = parent.st.clone()
	e.vars = e.st.declare(cs[i], parent.vars[:len(parent.vars):len(parent.vars)])
	e.ix = s.push(slices.Clone(parent.ix), cs[i], i, true)
	s.fresh[0] = i
	mark := len(s.arena)
	defer func() { s.arena = s.arena[:mark] }()
	s.arena = parent.liveSet(s.arena)
	active := s.arena[mark:]
	retired, ok := s.settle(cs, e.ix, e.st, active, s.fresh[:])
	switch {
	case !ok:
		return &prefixEntry{cs: cs}
	case retired == 0:
		e.live, e.from = parent.live, parent.from
	default:
		e.live, e.from = s.survivors(active, s.fresh[:], make([]int32, 0, len(active))), len(cs)
	}
	return e
}

// solveFromPrefix answers cs = pe.cs ∧ extras starting from the prefix
// snapshot: clone it, declare and index the extras, settle them, search.
// The extras' state is never cached.
func (s *Solver) solveFromPrefix(pe *prefixEntry, cs []sym.Expr, hint sym.Env) (sym.Env, Result) {
	s.Calls++
	if pe.st == nil {
		// The prefix alone is contradictory; no delta can rescue it.
		s.UnsatCount++
		return nil, Unsat
	}
	mark := len(s.arena)
	st := s.fork(pe.st)
	defer func() { s.arena = s.arena[:mark]; s.release(st) }()
	q := &query{cs: cs, vars: pe.vars[:len(pe.vars):len(pe.vars)], ix: slices.Clone(pe.ix)}
	for i := len(pe.cs); i < len(cs); i++ {
		q.vars = st.declare(cs[i], q.vars)
		q.ix = s.push(q.ix, cs[i], int32(i), true)
		s.arena = append(s.arena, int32(i))
	}
	end := len(s.arena)
	s.arena = pe.liveSet(s.arena)
	active := s.arena[end:]
	if _, ok := s.settle(cs, q.ix, st, active, s.arena[mark:end]); !ok {
		s.UnsatCount++
		return nil, Unsat
	}
	live := len(s.arena)
	s.arena = s.survivors(active, s.arena[mark:end], s.arena)
	return s.answer(q, st, s.arena[live:], hint)
}

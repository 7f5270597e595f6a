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
	"dice/internal/sym"
)

// prefixEntry is one propagated prefix snapshot. st is the state after
// propagating cs to fixpoint — treated as immutable once stored (queries
// clone it) — and is nil when the prefix alone is infeasible.
type prefixEntry struct {
	cs   []sym.Expr
	vars []*sym.Var
	st   *state
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
	prefix, delta := cs[:len(cs)-1], cs[len(cs)-1]
	return s.solveFromPrefix(s.prefixFor(prefix), cs, delta, hint)
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

// extendPrefix builds the snapshot for cs = parent.cs + one constraint.
func (s *Solver) extendPrefix(parent *prefixEntry, cs []sym.Expr) *prefixEntry {
	e := &prefixEntry{cs: cs}
	if parent.st == nil {
		return e // ancestor already infeasible; so is every extension
	}
	added := cs[len(cs)-1]
	e.vars, e.st = addVars(parent.vars, parent.st, added)
	// Propagate the delta; the parent state is already a fixpoint of the
	// shorter prefix, so if the delta refined nothing the extension is
	// converged too, and otherwise the fixpoint re-run starts from a
	// converged state (typically one cheap round, not the from-⊤ cascade).
	ch, ok := propagate(added, true, e.st)
	if !ok || (ch && !propagateAll(cs, e.st)) {
		e.st = nil
	}
	return e
}

// addVars clones st and extends vars/domains with the variables of e not
// already present. The parent's slices stay untouched (snapshots are
// immutable once stored).
func addVars(vars []*sym.Var, st *state, e sym.Expr) ([]*sym.Var, *state) {
	nv := make([]*sym.Var, len(vars), len(vars)+2)
	copy(nv, vars)
	ns := st.clone()
	return ns.declare(e, nv), ns
}

// solveFromPrefix answers cs = prefix ∧ delta starting from the prefix
// snapshot: clone, propagate the delta, fixpoint, then search.
func (s *Solver) solveFromPrefix(pe *prefixEntry, cs []sym.Expr, delta sym.Expr, hint sym.Env) (sym.Env, Result) {
	s.Calls++
	if pe.st == nil {
		// The prefix alone is contradictory; no delta can rescue it.
		s.UnsatCount++
		return nil, Unsat
	}
	vars, st := addVars(pe.vars, pe.st, delta)
	ch, ok := propagate(delta, true, st)
	if !ok || (ch && !propagateAll(cs, st)) {
		s.UnsatCount++
		return nil, Unsat
	}
	budget := s.opts.MaxNodes
	complete := true
	env, ok := s.search(cs, vars, st, hint, &budget, &complete)
	if ok {
		s.SatCount++
		return env, Sat
	}
	if budget <= 0 || !complete {
		return nil, Unknown
	}
	s.UnsatCount++
	return nil, Unsat
}

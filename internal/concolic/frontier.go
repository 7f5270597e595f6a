package concolic

import (
	"sort"

	"dice/internal/sym"
)

// workItem is a pending negation: solve assumes ∧ path[:depth] ∧ ¬path[depth],
// run if sat. The prefix is kept as (assumes, path, depth) references —
// shared with every sibling item of the same fold — and concatenated
// into one conjunction only when the item is actually solved.
type workItem struct {
	assumes []sym.Expr
	path    []sym.Expr // full parent path; the query prefix is path[:depth]
	depth   int        // index of the negated predicate, for child bounds
	negated sym.Expr
	key     sym.Fingerprint // full-query fingerprint; negation dedup key
	hint    sym.Env
}

// conjunction materializes the solver query assumes ∧ path[:depth] ∧ ¬p.
func (it *workItem) conjunction() []sym.Expr {
	cs := make([]sym.Expr, 0, len(it.assumes)+it.depth+1)
	cs = append(cs, it.assumes...)
	cs = append(cs, it.path[:it.depth]...)
	return append(cs, it.negated)
}

// pathRec pins the constraints behind a path-signature entry so a
// fingerprint collision is detected structurally instead of silently
// merging two distinct paths. A record imported from the wire
// (state_wire.go) carries the canonical rendering instead of expression
// references — verification then compares renderings, with the same
// soundness: a collision can cost a duplicate solve, never lose a path.
type pathRec struct {
	assumes, path []sym.Expr
	rendered      string // set on imported records; exprs are nil
}

func (r pathRec) equals(assumes, path []sym.Expr) bool {
	if r.rendered != "" {
		return r.rendered == renderPathRec(assumes, path)
	}
	return sym.PathsEqual(r.assumes, assumes) && sym.PathsEqual(r.path, path)
}

func (r pathRec) render() string {
	if r.rendered != "" {
		return r.rendered
	}
	return renderPathRec(r.assumes, r.path)
}

// negRec pins the query behind a negation-key entry, same soundness
// contract as pathRec (including the imported-record rendering form).
type negRec struct {
	assumes  []sym.Expr
	path     []sym.Expr
	depth    int
	negated  sym.Expr
	rendered string // set on imported records; exprs are nil
}

func (r negRec) equals(assumes, path []sym.Expr, depth int, neg sym.Expr) bool {
	if r.rendered != "" {
		return r.depth == depth && r.rendered == renderNegRec(assumes, path[:depth], neg)
	}
	return r.depth == depth &&
		sym.PathsEqual(r.assumes, assumes) &&
		sym.PathsEqual(r.path[:r.depth], path[:depth]) &&
		sym.Equal(r.negated, neg)
}

func (r negRec) render() string {
	if r.rendered != "" {
		return r.rendered
	}
	return renderNegRec(r.assumes, r.path[:r.depth], r.negated)
}

// pathSigSep separates the assumption constraints from the branch
// constraints inside a PathSig, so ([a], []) and ([], [a]) sign apart.
const pathSigSep = 0x70617468 // "path"

// frontier is the exploration frontier: the strategy-ordered queue of
// pending negations plus the dedup sets that keep the engine from
// re-running paths or re-issuing negation queries. When cross-round
// ExploreState is attached, the dedup extends over every prior round.
//
// All dedup keys are rolling fingerprints computed incrementally along
// the path — O(1) per branch point, where the seed code rebuilt an
// O(path)-sized rendered signature per branch (quadratic per fold).
// Every map chains the keyed constraints for structural verification, so
// a fingerprint collision costs a duplicate solve, never a lost path.
//
// The frontier is a plain data structure with no locking of its own; the
// scheduler serializes access and keeps handler runs and solver searches
// outside its critical sections.
type frontier struct {
	strategy Strategy
	state    *ExploreState // cross-round memory; may be nil

	seen      map[PathSig][]pathRec        // path signatures executed this round
	attempts  map[sym.Fingerprint][]negRec // negation queries issued this round
	branches  map[uint64][]sym.Expr        // distinct oriented constraints, by node hash
	nbranches int

	queue []workItem
	peak  int // high-water mark of len(queue) this round

	skippedPaths     int // paths suppressed because a prior round explored them
	skippedNegations int // negations suppressed because a prior round attempted them
}

func newFrontier(strategy Strategy, state *ExploreState) *frontier {
	f := &frontier{
		strategy: strategy,
		state:    state,
		seen:     make(map[PathSig][]pathRec),
		attempts: make(map[sym.Fingerprint][]negRec),
		branches: make(map[uint64][]sym.Expr),
	}
	if state != nil {
		// Resume frontier work a budget-stopped earlier round left behind
		// (its parent paths are in the state and will not be re-folded).
		f.queue = state.takePending()
		f.peak = len(f.queue)
		for _, it := range f.queue {
			f.attempts[it.key] = append(f.attempts[it.key],
				negRec{assumes: it.assumes, path: it.path, depth: it.depth, negated: it.negated})
		}
		f.order()
	}
	return f
}

// addBranch records one oriented constraint in the aggregate branch set.
func (f *frontier) addBranch(c sym.Expr) {
	h := c.Hash()
	chain := f.branches[h]
	for _, e := range chain {
		if sym.Equal(e, c) {
			return
		}
	}
	f.branches[h] = append(chain, c)
	f.nbranches++
}

// recordSeen marks (assumes, path) as executed this round; reports
// whether it was new.
func (f *frontier) recordSeen(sig PathSig, assumes, path []sym.Expr) bool {
	chain := f.seen[sig]
	for _, r := range chain {
		if r.equals(assumes, path) {
			return false
		}
	}
	f.seen[sig] = append(chain, pathRec{assumes: assumes, path: path})
	return true
}

// recordAttempt marks a negation query as scheduled this round; reports
// whether it was new.
func (f *frontier) recordAttempt(key sym.Fingerprint, assumes, path []sym.Expr, depth int, neg sym.Expr) bool {
	chain := f.attempts[key]
	for _, r := range chain {
		if r.equals(assumes, path, depth, neg) {
			return false
		}
	}
	f.attempts[key] = append(chain, negRec{assumes: assumes, path: path, depth: depth, negated: neg})
	return true
}

// fold records one finished run's path and schedules negations of its
// suffix predicates from bound onward — "the concolic execution engine
// starts negating constraints one at a time, resulting in a set of
// inputs" (§2.3). The aggregate set grows because later runs may reach
// branches earlier runs missed. It reports whether the path is new to
// this round AND to every prior round sharing the attached state (fresh
// paths are the ones the caller reports).
//
// One pass rolls two fingerprints along the path: the path signature and
// the per-branch prefix key, so fold is O(path), not O(path²).
func (f *frontier) fold(assumes, path []sym.Expr, env sym.Env, bound int) (fresh bool) {
	afp := sym.FingerprintPath(assumes)
	sig := afp.Mix(pathSigSep)
	for _, c := range path {
		f.addBranch(c)
		sig = sig.Extend(c)
	}
	if !f.recordSeen(sig, assumes, path) {
		return false
	}
	fresh = true
	if f.state != nil && !f.state.RecordPath(sig, assumes, path) {
		f.skippedPaths++
		fresh = false
	}
	// pfp rolls over assumes ∧ path[:i] as i advances: O(1) per branch.
	pfp := afp
	for i := 0; i < bound && i < len(path); i++ {
		pfp = pfp.Extend(path[i])
	}
	for i := bound; i < len(path); i, pfp = i+1, pfp.Extend(path[i]) {
		neg := sym.NewNot(path[i])
		key := pfp.Extend(neg)
		if !f.recordAttempt(key, assumes, path, i, neg) {
			continue
		}
		// Cross-round dedup is check-only here: the key is recorded into
		// the state by the scheduler when the query is actually issued,
		// so work dropped by a budget stop is retried in a later round.
		if f.state != nil && f.state.SeenNegation(key, assumes, path, i, neg) {
			f.skippedNegations++
			continue
		}
		// Assumptions are conjoined to the prefix so solutions always
		// satisfy them, but they are never negated themselves.
		f.queue = append(f.queue, workItem{
			assumes: assumes,
			path:    path,
			depth:   i,
			negated: neg,
			key:     key,
			hint:    cloneEnv(env),
		})
	}
	if n := len(f.queue); n > f.peak {
		f.peak = n
	}
	f.order()
	return fresh
}

// pop removes and returns the next work item. The queue is drained from
// the back; order arranges it so the strategy's preferred item sits last.
func (f *frontier) pop() (workItem, bool) {
	if len(f.queue) == 0 {
		return workItem{}, false
	}
	it := f.queue[len(f.queue)-1]
	f.queue = f.queue[:len(f.queue)-1]
	return it, true
}

// pending returns the number of queued negations.
func (f *frontier) pending() int { return len(f.queue) }

// clear drops all queued work (budget exhausted / cancelled), stowing it
// in the cross-round state — when one is attached — so the next round
// resumes instead of losing the unexplored subtrees.
func (f *frontier) clear() {
	if f.state != nil {
		f.state.savePending(f.queue)
	}
	f.queue = nil
}

// order arranges pending work according to the strategy. The queue is
// drained from the back, so DFS wants deepest-last, BFS shallowest-last.
func (f *frontier) order() {
	switch f.strategy {
	case DFS:
		sort.SliceStable(f.queue, func(i, j int) bool { return f.queue[i].depth < f.queue[j].depth })
	case BFS:
		sort.SliceStable(f.queue, func(i, j int) bool { return f.queue[i].depth > f.queue[j].depth })
	case Generational:
		// FIFO-ish: keep insertion order, drain oldest last for breadth
		// across generations while still finishing each generation.
	}
}

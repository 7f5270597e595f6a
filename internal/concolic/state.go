package concolic

import (
	"sync"

	"dice/internal/sym"
)

// ExploreState is exploration memory that persists across rounds. The
// paper's online mode runs rounds continuously against live checkpoints;
// without cross-round state every round re-discovers the same paths and
// re-issues the same solver queries. An ExploreState attached to
// Options.State makes later rounds incremental:
//
//   - path signatures explored by any prior round are not re-reported
//     (a warm round's Report carries only genuinely new paths);
//   - negation queries attempted by any prior round are not re-issued
//     (counted in Report.SkippedNegations instead of hitting the solver).
//
// Keys are 128-bit path fingerprints (see sym.Fingerprint); every entry
// chains the constraints it stands for and membership checks verify them
// structurally, so a fingerprint collision can cost a duplicate solve
// but can never suppress a genuinely new path or negation.
//
// Path signatures are derived from the path condition only, so the state
// is valid as long as the handler's branch structure for a given input is
// stable across rounds; if the node's policy configuration changes, start
// a fresh ExploreState. A negation is recorded only once fully processed
// (answered and, when Sat, its witness run executed); frontier work still
// pending when a budget stops a round is stowed here and resumed by the
// next round, so a budget stop loses nothing. A fully processed negation
// is never retried — including ones that returned Unknown under that
// round's node budget. The maps grow monotonically (one entry per
// distinct path and negation); long-lived online deployments should
// rotate to a fresh state periodically rather than keep one forever.
//
// Safe for concurrent use; DiCE shares one ExploreState per
// (scenario, peer) across all its rounds.
type ExploreState struct {
	mu         sync.Mutex
	seen       map[PathSig][]pathRec
	attempted  map[sym.Fingerprint][]negRec
	nPaths     int
	nNegations int
	pending    []workItem // frontier left over when a budget stopped a round
	rounds     int
}

// NewExploreState creates empty cross-round exploration state.
func NewExploreState() *ExploreState {
	return &ExploreState{
		seen:      make(map[PathSig][]pathRec),
		attempted: make(map[sym.Fingerprint][]negRec),
	}
}

// RecordPath marks the path (assumes, path) as explored under sig and
// reports whether this is the first round ever to see it.
func (s *ExploreState) RecordPath(sig PathSig, assumes, path []sym.Expr) (first bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	chain := s.seen[sig]
	for _, r := range chain {
		if r.equals(assumes, path) {
			return false
		}
	}
	s.seen[sig] = append(chain, pathRec{assumes: assumes, path: path})
	s.nPaths++
	return true
}

// SeenNegation reports whether any round has already issued this
// negation query (structurally verified, not just fingerprint-matched).
func (s *ExploreState) SeenNegation(key sym.Fingerprint, assumes, path []sym.Expr, depth int, neg sym.Expr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.attempted[key] {
		if r.equals(assumes, path, depth, neg) {
			return true
		}
	}
	return false
}

// RecordNegation marks a negation query as attempted. The scheduler calls
// it when the query is actually issued — not when it is merely scheduled —
// so queued work dropped by a budget stop stays retryable in later rounds.
func (s *ExploreState) RecordNegation(it workItem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	chain := s.attempted[it.key]
	for _, r := range chain {
		if r.equals(it.assumes, it.path, it.depth, it.negated) {
			return
		}
	}
	s.attempted[it.key] = append(chain, negRec{
		assumes: it.assumes, path: it.path, depth: it.depth, negated: it.negated,
	})
	s.nNegations++
}

// savePending stows frontier work a budget-stopped round could not
// process, so the next round resumes it instead of losing the subtrees
// behind it (their parent paths are recorded as seen and would never be
// re-folded).
func (s *ExploreState) savePending(items []workItem) {
	if len(items) == 0 {
		return
	}
	s.mu.Lock()
	s.pending = append(s.pending, items...)
	s.mu.Unlock()
}

// takePending drains the stowed frontier into the starting round.
func (s *ExploreState) takePending() []workItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pending
	s.pending = nil
	return p
}

// PendingWork reports how many frontier items a budget-stopped round left
// for the next round to resume.
func (s *ExploreState) PendingWork() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// beginRound counts a round against this state.
func (s *ExploreState) beginRound() {
	s.mu.Lock()
	s.rounds++
	s.mu.Unlock()
}

// ExploreStateStats summarizes accumulated cross-round state.
type ExploreStateStats struct {
	Rounds    int // rounds that used this state
	Paths     int // distinct path signatures ever explored
	Negations int // distinct negation queries ever attempted
}

// Stats returns a snapshot of the accumulated state.
func (s *ExploreState) Stats() ExploreStateStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ExploreStateStats{
		Rounds:    s.rounds,
		Paths:     s.nPaths,
		Negations: s.nNegations,
	}
}

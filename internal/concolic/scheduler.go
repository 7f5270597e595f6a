package concolic

import (
	"sync"
	"sync/atomic"
	"time"

	"dice/internal/solver"
)

// shard is one engine's share of a scheduler run: its frontier, budgets,
// cross-round state and result accumulators. A classic single-node
// exploration is a fleet of one shard; a federated round runs one shard
// per topology node over the same worker pool, so idle capacity on a
// cheap node's frontier is spent on an expensive node's instead of
// waiting out the round.
type shard struct {
	id    string // display/debug identity (node ID in federated rounds)
	e     *Engine
	front *frontier

	// Guarded by the scheduler mutex.
	runs   int
	seq    int
	budget string
	done   bool // budget stopped: frontier cleared, no new work accepted
	active int  // this shard's items currently being processed
	paths  []*PathResult

	start  time.Time
	finish time.Time // when this shard's own work drained (not the fleet's)

	solverCalls, solverSat, solverUnsat atomic.Int64
}

func (sh *shard) cancelled() bool {
	if sh.e.opts.Cancel == nil {
		return false
	}
	select {
	case <-sh.e.opts.Cancel:
		return true
	default:
		return false
	}
}

// expired reports whether a per-shard budget forbids more runs, naming
// the budget. Caller holds the scheduler mutex.
func (sh *shard) expired() (string, bool) {
	switch {
	case sh.cancelled():
		return "cancelled", true
	case sh.runs >= sh.e.opts.MaxRuns:
		return "max-runs", true
	}
	return "", false
}

// scheduler drives one exploration round over one or more shards: a pool
// of worker goroutines drains the shards' frontiers, each worker owning
// one reusable solver. The frontiers and the per-shard run/seq budget
// counters live behind a single short mutex; handler executions, solver
// searches and path judges — the expensive parts — run outside it, and
// solver statistics are per-shard atomics so workers never serialize on
// bookkeeping.
//
// The pool is sized to the frontier, not to Options.Workers: a worker
// that finds nothing queued exits instead of waiting, and a worker whose
// fold queues more than the pool can take starts the missing ones
// (staff). A three-path round never wakes a second goroutine to tell it
// there is nothing to do; a round whose frontier opens up late still
// gets every worker it is allowed.
type scheduler struct {
	shards  []*shard
	workers int
	wg      sync.WaitGroup

	mu      sync.Mutex
	queued  int // items in all live shards' frontiers
	active  int // items being processed across all shards
	running int // worker goroutines alive
	rr      int // round-robin cursor over shards for fairness
	// idle holds the solvers of workers that exited, for the next worker
	// started: the propagated prefix chains outlive the goroutine.
	idle []*solver.Solver
}

func newScheduler(ids []string, engines []*Engine, workers int) *scheduler {
	shards := make([]*shard, len(engines))
	for i, e := range engines {
		id := ""
		if i < len(ids) {
			id = ids[i]
		}
		shards[i] = &shard{
			id:    id,
			e:     e,
			front: newFrontier(e.opts.Strategy, e.opts.State),
		}
	}
	if workers <= 0 {
		workers = 1
	}
	sch := &scheduler{shards: shards, workers: workers}
	for _, sh := range shards {
		sch.queued += sh.front.pending() // work resumed from a prior round
	}
	return sch
}

// execute runs a shard's handler under an assignment and folds the
// resulting path into that shard's frontier; a path the fold accepts as
// new is then judged, here, on the goroutine that found it (Engine.Judge).
// Returns false when the shard's run budget is gone.
func (sch *scheduler) execute(sh *shard, env map[int]uint64, bound int) bool {
	sch.mu.Lock()
	if sh.done {
		sch.mu.Unlock()
		return false
	}
	if why, stop := sh.expired(); stop {
		sh.budget = why
		sch.mu.Unlock()
		return false
	}
	sh.runs++
	mySeq := sh.seq
	sh.seq++
	sch.mu.Unlock()

	rc := &RunContext{env: env, vars: sh.e.byName}
	out := sh.e.handler(rc)

	var fresh *PathResult
	sch.mu.Lock()
	before := sh.front.pending()
	if sh.front.fold(rc.assumes, rc.path, env, bound) {
		fresh = &PathResult{
			Seq:     mySeq,
			Env:     cloneEnv(env),
			Path:    rc.path,
			Assumes: rc.assumes,
			Output:  out,
			Notes:   rc.notes,
		}
		sh.paths = append(sh.paths, fresh) // discovery order is fold order
	}
	sch.queued += sh.front.pending() - before
	if sch.running > 0 {
		sch.staff() // not during the seed runs: the pool starts after them
	}
	sch.mu.Unlock()

	// Only this goroutine holds fresh until the pool has drained, so the
	// verdict needs no lock; a path some earlier round already reported
	// is not fresh and is never judged again.
	if fresh != nil && sh.e.judge != nil {
		fresh.Verdict = sh.e.judge(fresh)
	}
	return true
}

// popLocked removes the next work item, preferring the shard the worker
// used last (solver prefix-snapshot locality), then scanning round-robin.
// Caller holds the mutex.
func (sch *scheduler) popLocked(prefer *shard) (*shard, workItem, bool) {
	if sch.queued == 0 {
		return nil, workItem{}, false
	}
	if prefer != nil && !prefer.done {
		if it, ok := prefer.front.pop(); ok {
			sch.queued--
			return prefer, it, true
		}
	}
	for i := 0; i < len(sch.shards); i++ {
		sh := sch.shards[(sch.rr+i)%len(sch.shards)]
		if sh.done {
			continue
		}
		if it, ok := sh.front.pop(); ok {
			sch.queued--
			sch.rr = (sch.rr + i + 1) % len(sch.shards)
			return sh, it, true
		}
	}
	return nil, workItem{}, false
}

// drop clears a shard's frontier (stowing it in the cross-round state,
// when attached) and marks the shard done. Caller holds the mutex.
func (sch *scheduler) drop(sh *shard) {
	sch.queued -= sh.front.pending()
	sh.front.clear()
	sh.done = true
	sch.noteIdle(sh)
}

// staff starts the workers the frontier can keep busy and the pool does
// not have. Every running worker that is not mid-item is about to pop
// one (workers never wait), so whatever is queued beyond those is work
// for a goroutine that does not exist yet. Caller holds the mutex and is
// either run, before it waits, or a running worker (so the WaitGroup
// cannot reach zero under the Add).
func (sch *scheduler) staff() {
	for sch.running < sch.workers && sch.queued > sch.running-sch.active {
		sch.running++
		sch.wg.Add(1)
		go sch.worker()
	}
}

// retire marks a shard budget-stopped: its queued work is stowed in the
// cross-round state (when attached) and the shard accepts no more items.
// Caller holds the mutex.
func (sch *scheduler) retire(sh *shard, item workItem) {
	if sh.e.opts.State != nil {
		sh.e.opts.State.savePending([]workItem{item})
	}
	if sh.budget == "" {
		sh.budget, _ = sh.expired()
	}
	sch.drop(sh)
}

// noteIdle stamps the shard's finish time once its own work has drained:
// nothing queued and nothing in flight. New work for a shard only ever
// comes from its own in-flight executions, so the first idle moment is
// final — per-shard Elapsed measures the shard, not the fleet. Caller
// holds the mutex.
func (sch *scheduler) noteIdle(sh *shard) {
	if sh.finish.IsZero() && sh.active == 0 && (sh.done || sh.front.pending() == 0) {
		sh.finish = time.Now()
	}
}

// worker drains the shards until it finds nothing queued. Each worker
// keeps one reusable solver so the propagated prefix-snapshot chain
// (solver/prefix.go) survives across queries.
func (sch *scheduler) worker() {
	defer sch.wg.Done()
	var sv *solver.Solver
	sch.mu.Lock()
	if n := len(sch.idle); n > 0 {
		sv, sch.idle = sch.idle[n-1], sch.idle[:n-1]
	}
	sch.mu.Unlock()
	if sv == nil {
		sv = solver.New(solver.Options{})
	}
	var last *shard
	for {
		sch.mu.Lock()
		sh, item, ok := sch.popLocked(last)
		if !ok {
			// Nothing queued. Items still in flight belong to workers
			// that will staff the pool again if they fold new work.
			sch.running--
			sch.idle = append(sch.idle, sv)
			sch.mu.Unlock()
			return
		}
		last = sh
		sch.active++
		sh.active++
		why, stop := sh.expired()
		sch.mu.Unlock()

		if stop {
			sch.mu.Lock()
			sch.active--
			sh.active--
			if sh.budget == "" {
				sh.budget = why
			}
			sch.retire(sh, item)
			sch.mu.Unlock()
			continue // other shards may still have work
		}

		// One conjunction allocation per solved item; the solver reuses
		// its propagated snapshot of the shared prefix (prefix.go).
		env, res := sv.SolvePrefixed(item.conjunction(), item.hint)
		sh.solverCalls.Add(1)
		switch res {
		case solver.Sat:
			sh.solverSat.Add(1)
		case solver.Unsat:
			sh.solverUnsat.Add(1)
		}

		completed := true
		if res == solver.Sat {
			// Unconstrained inputs keep their observed (hinted) value.
			merged := cloneEnv(item.hint)
			for id, v := range env {
				merged[id] = v
			}
			completed = sch.execute(sh, merged, item.depth+1)
		}
		// The negation counts as attempted for future rounds only once it
		// was fully processed: answered, and (when Sat) its witness run
		// executed. An item whose run a budget stop refused goes back to
		// the state's pending frontier for the next round, which solves it
		// again (≈5 µs from the prefix chain) before running it.
		if sh.e.opts.State != nil {
			if completed {
				sh.e.opts.State.RecordNegation(item)
			} else {
				sh.e.opts.State.savePending([]workItem{item})
			}
		}

		sch.mu.Lock()
		sch.active--
		sh.active--
		sch.noteIdle(sh)
		sch.mu.Unlock()
	}
}

// run performs the whole exploration: one seed run per shard, then the
// shared worker pool, then one report per shard (same order as the
// engines given to newScheduler).
func (sch *scheduler) run() []*Report {
	for _, sh := range sch.shards {
		sh.start = time.Now()
		if sh.e.opts.State != nil {
			sh.e.opts.State.beginRound()
		}
		// Seed run explores from the observed input.
		ran := sch.execute(sh, cloneEnv(sh.e.seed), 0)
		sch.mu.Lock()
		if ran {
			sch.noteIdle(sh) // a branchless seed may already drain the shard
		} else {
			// Seed run refused (pre-cancelled / expired budget): stow any
			// frontier work resumed from a prior round back into the state
			// instead of silently dropping it.
			sch.drop(sh)
		}
		sch.mu.Unlock()
	}

	// No goroutine at all for an empty frontier (a warm round).
	sch.mu.Lock()
	sch.staff()
	sch.mu.Unlock()
	sch.wg.Wait()

	reports := make([]*Report, len(sch.shards))
	for i, sh := range sch.shards {
		elapsed := time.Since(sh.start)
		if !sh.finish.IsZero() {
			elapsed = sh.finish.Sub(sh.start)
		}
		paths := make([]PathResult, len(sh.paths))
		for k, p := range sh.paths {
			paths[k] = *p
		}
		reports[i] = &Report{
			Paths:            paths,
			Runs:             sh.runs,
			SolverCalls:      int(sh.solverCalls.Load()),
			SolverSat:        int(sh.solverSat.Load()),
			SolverUnsat:      int(sh.solverUnsat.Load()),
			BranchesSeen:     sh.front.nbranches,
			SkippedPaths:     sh.front.skippedPaths,
			SkippedNegations: sh.front.skippedNegations,
			Budget:           sh.budget,
			Elapsed:          elapsed,
		}
		sh.e.opts.Metrics.observeRound(reports[i], sh.front.peak)
	}
	return reports
}

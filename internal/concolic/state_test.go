package concolic

import (
	"sync"
	"testing"
)

// twoPredicateHandler has four feasible paths over one 32-bit input.
func twoPredicateHandler(rc *RunContext) any {
	x := rc.Input("x")
	n := 0
	if rc.Branch(Lt(x, Concrete(10, 32))) {
		n |= 1
	}
	if rc.Branch(Eq(And(x, Concrete(1, 32)), Concrete(1, 32))) {
		n |= 2
	}
	return n
}

func exploreWith(opts Options) *Report {
	eng := NewEngine(twoPredicateHandler, opts)
	eng.Var("x", 32, 4)
	return eng.Explore()
}

// TestWarmStateSkipsExploredWork: with a shared ExploreState, a second
// round on the same seed issues no solver queries and reports no paths —
// everything was explored by round one (the paper's continuous online
// mode must not re-pay for known paths).
func TestWarmStateSkipsExploredWork(t *testing.T) {
	state := NewExploreState()

	cold := exploreWith(Options{State: state})
	if len(cold.Paths) != 4 {
		t.Fatalf("cold round found %d paths, want 4", len(cold.Paths))
	}
	if cold.SolverCalls == 0 {
		t.Fatal("cold round issued no solver queries")
	}
	if cold.SkippedPaths != 0 || cold.SkippedNegations != 0 {
		t.Fatalf("cold round skipped work: %d paths / %d negations",
			cold.SkippedPaths, cold.SkippedNegations)
	}

	warm := exploreWith(Options{State: state})
	if warm.Runs != 1 {
		t.Fatalf("warm round ran %d times, want 1 (seed only)", warm.Runs)
	}
	if len(warm.Paths) != 0 {
		t.Fatalf("warm round re-reported %d paths", len(warm.Paths))
	}
	if warm.SolverCalls != 0 {
		t.Fatalf("warm round issued %d solver queries", warm.SolverCalls)
	}
	if warm.SkippedPaths != 1 {
		t.Fatalf("warm round skipped %d paths, want 1 (the seed path)", warm.SkippedPaths)
	}
	if warm.SkippedNegations == 0 {
		t.Fatal("warm round skipped no negations")
	}

	st := state.Stats()
	if st.Rounds != 2 || st.Paths != 4 {
		t.Fatalf("state stats = %+v, want 2 rounds / 4 paths", st)
	}
}

// TestWarmStateParallelWorkers: cross-round skipping is safe and exact
// under a parallel scheduler.
func TestWarmStateParallelWorkers(t *testing.T) {
	state := NewExploreState()
	cold := exploreWith(Options{State: state, Workers: 4})
	if len(cold.Paths) != 4 {
		t.Fatalf("cold parallel round found %d paths", len(cold.Paths))
	}
	warm := exploreWith(Options{State: state, Workers: 4})
	if len(warm.Paths) != 0 || warm.SolverCalls != 0 {
		t.Fatalf("warm parallel round: %d paths, %d solver calls",
			len(warm.Paths), warm.SolverCalls)
	}
}

// TestBudgetStopDoesNotPoisonState: negations still queued when a budget
// stops a round must stay retryable — a later warm round with a bigger
// budget picks up the dropped work instead of counting it as skipped.
func TestBudgetStopDoesNotPoisonState(t *testing.T) {
	state := NewExploreState()
	run := func(maxRuns int) *Report {
		handler := func(rc *RunContext) any {
			x := rc.Input("x")
			n := 0
			for i := 0; i < 4; i++ { // 16 feasible paths
				if rc.Branch(Eq(And(Shr(x, Concrete(uint64(i), 32)), Concrete(1, 32)), Concrete(1, 32))) {
					n |= 1 << i
				}
			}
			return n
		}
		eng := NewEngine(handler, Options{State: state, MaxRuns: maxRuns})
		eng.Var("x", 32, 0)
		return eng.Explore()
	}

	small := run(3) // stops with negations still queued
	if small.Budget != "max-runs" {
		t.Fatalf("small round budget = %q", small.Budget)
	}
	if state.PendingWork() == 0 {
		t.Fatal("budget-stopped round stowed no pending frontier")
	}
	big := run(1000)
	if big.SolverCalls == 0 {
		t.Fatal("dropped negations were poisoned: warm round issued no queries")
	}
	total := len(small.Paths) + len(big.Paths)
	if total != 16 {
		t.Fatalf("rounds found %d+%d paths, want 16 total", len(small.Paths), len(big.Paths))
	}
	if state.PendingWork() != 0 {
		t.Fatalf("completed round left %d pending items", state.PendingWork())
	}
}

// TestRefusedSeedRunKeepsPendingWork: a round whose seed run is refused
// (pre-cancelled) must stow resumed frontier work back into the state
// rather than silently dropping it.
func TestRefusedSeedRunKeepsPendingWork(t *testing.T) {
	state := NewExploreState()
	run := func(opts Options) *Report {
		opts.State = state
		eng := NewEngine(twoPredicateHandler, opts)
		eng.Var("x", 32, 4)
		return eng.Explore()
	}

	if rep := run(Options{MaxRuns: 1}); rep.Budget != "max-runs" {
		t.Fatalf("priming round budget = %q", rep.Budget)
	}
	before := state.PendingWork()
	if before == 0 {
		t.Fatal("priming round stowed nothing")
	}

	cancel := make(chan struct{})
	close(cancel)
	if rep := run(Options{Cancel: cancel}); rep.Budget != "cancelled" {
		t.Fatalf("cancelled round budget = %q", rep.Budget)
	}
	if got := state.PendingWork(); got != before {
		t.Fatalf("cancelled round lost pending work: %d -> %d", before, got)
	}

	// A later unconstrained round finishes the job.
	if rep := run(Options{}); len(rep.Paths) == 0 {
		t.Fatal("resumed round found nothing")
	}
	if state.PendingWork() != 0 {
		t.Fatalf("completed round left %d pending items", state.PendingWork())
	}
}

// TestCancelMidExploration: closing Cancel during a round stops it
// between runs, reports the budget as "cancelled", and keeps the partial
// results gathered so far.
func TestCancelMidExploration(t *testing.T) {
	cancel := make(chan struct{})
	var once sync.Once
	runs := 0
	handler := func(rc *RunContext) any {
		x := rc.Input("x")
		// 16 independent bit-branches → far more paths than we allow.
		for i := 0; i < 16; i++ {
			rc.Branch(Eq(And(Shr(x, Concrete(uint64(i), 32)), Concrete(1, 32)), Concrete(1, 32)))
		}
		runs++
		if runs >= 3 {
			once.Do(func() { close(cancel) })
		}
		return nil
	}
	eng := NewEngine(handler, Options{Cancel: cancel})
	eng.Var("x", 32, 0)
	rep := eng.Explore()
	if rep.Budget != "cancelled" {
		t.Fatalf("budget = %q, want cancelled", rep.Budget)
	}
	if rep.Runs < 3 || rep.Runs > 4 {
		t.Fatalf("cancel did not stop between runs: %d runs", rep.Runs)
	}
	if len(rep.Paths) == 0 {
		t.Fatal("partial results lost on cancel")
	}
}

// TestCancelBeforeStart: a pre-closed Cancel stops exploration before the
// seed run executes.
func TestCancelBeforeStart(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	rep := exploreWith(Options{Cancel: cancel})
	if rep.Runs != 0 || len(rep.Paths) != 0 {
		t.Fatalf("pre-cancelled exploration ran: %d runs, %d paths", rep.Runs, len(rep.Paths))
	}
	if rep.Budget != "cancelled" {
		t.Fatalf("budget = %q, want cancelled", rep.Budget)
	}
}

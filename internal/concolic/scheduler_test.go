package concolic

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestJudgeOncePerNewPath: the judge sees every path the round reports,
// exactly once, and what it returned is on that path's PathResult — with
// several workers judging at once (run under -race), and not at all in a
// warm round that finds nothing new.
func TestJudgeOncePerNewPath(t *testing.T) {
	state := NewExploreState()
	round := func() (*Report, int64) {
		var handled, judged atomic.Int64
		e := newFleetEngine(&handled, Options{Workers: 4, State: state})
		e.Judge(func(p *PathResult) any {
			judged.Add(1)
			return p.Output.(int) * 10
		})
		return e.Explore(), judged.Load()
	}

	cold, judged := round()
	if len(cold.Paths) != 8 || judged != 8 {
		t.Fatalf("cold round: %d paths, judge called %d times, want 8 and 8", len(cold.Paths), judged)
	}
	for _, p := range cold.Paths {
		if p.Verdict != p.Output.(int)*10 {
			t.Fatalf("path %d (output %v) carries verdict %v", p.Seq, p.Output, p.Verdict)
		}
	}

	warm, judged := round()
	if len(warm.Paths) != 0 || judged != 0 {
		t.Fatalf("warm round: %d new paths, judge called %d times, want none", len(warm.Paths), judged)
	}
}

// workersAtOnce runs one engine under a pool of up to `workers` and
// returns its report with a lower bound on the most workers alive at
// once: each leaves its solver set behind when it exits, and one starting
// up takes a set that is lying there before making its own, so the sets
// left at the end are the most that were ever held together.
func workersAtOnce(e *Engine, workers int) (*Report, int) {
	sch := newScheduler(nil, []*Engine{e}, workers)
	rep := sch.run()[0]
	return rep, len(sch.idle)
}

// TestPoolSizedToFrontier: the scheduler starts the workers the frontier
// can keep busy — none for a round with nothing to negate, one for a
// frontier of one — and still gives a frontier that only opens up after
// the seed every worker it is allowed.
func TestPoolSizedToFrontier(t *testing.T) {
	// Nothing symbolic is branched on: the seed run is the whole round.
	flat := NewEngine(func(rc *RunContext) any { return rc.Input("x").C }, Options{})
	flat.Var("x", 32, 7)
	if rep, n := workersAtOnce(flat, 8); n != 0 || len(rep.Paths) != 1 {
		t.Errorf("branchless handler: %d workers for %d paths, want 0 for 1", n, len(rep.Paths))
	}

	// One predicate: the seed queues one negation, whose run queues none.
	one := NewEngine(func(rc *RunContext) any { return rc.Branch(Lt(rc.Input("x"), Concrete(10, 32))) }, Options{})
	one.Var("x", 32, 4)
	if rep, n := workersAtOnce(one, 8); n != 1 || len(rep.Paths) != 2 {
		t.Errorf("one predicate: %d workers for %d paths, want 1 for 2", n, len(rep.Paths))
	}

	// A gate, then six independent bits behind it: the seed fails the gate
	// and queues a single negation, so the pool starts with one worker;
	// the run that passes the gate queues six at once. Runs with a bit set
	// — the children of that run — wait for each other until four are
	// inside together, which only a pool grown to four can deliver.
	const workers = 4
	var inside atomic.Int32
	together := make(chan struct{})
	var alone atomic.Bool
	late := NewEngine(func(rc *RunContext) any {
		x := rc.Input("x")
		if !rc.Branch(Ge(x, Concrete(1<<16, 32))) {
			return -1
		}
		n := 0
		for i := 0; i < 6; i++ {
			if rc.Branch(Eq(And(Shr(x, Concrete(uint64(i), 32)), Concrete(1, 32)), Concrete(1, 32))) {
				n |= 1 << i
			}
		}
		if n != 0 {
			if inside.Add(1) == workers {
				close(together)
			}
			select {
			case <-together:
			case <-time.After(5 * time.Second):
				alone.Store(true)
			}
		}
		return n
	}, Options{})
	late.Var("x", 32, 0)
	rep := newScheduler(nil, []*Engine{late}, workers).run()[0]
	if alone.Load() {
		t.Errorf("late-opening frontier: never %d runs in flight at once", workers)
	}
	if len(rep.Paths) != 65 {
		t.Errorf("late-opening frontier: %d paths, want 65", len(rep.Paths))
	}
}

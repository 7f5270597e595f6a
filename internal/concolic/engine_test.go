package concolic

import (
	"testing"

	"dice/internal/sym"
)

// TestExplorationCoversAllPaths reproduces Figure 1 of the paper: a
// handler with two sequential predicates has four feasible paths; starting
// from one concrete input, negating predicates must discover all of them.
func TestExplorationCoversAllPaths(t *testing.T) {
	var outputs []string
	handler := func(rc *RunContext) any {
		x := rc.Input("x")
		out := ""
		if rc.Branch(Lt(x, Concrete(10, 32))) { // predicate #1
			out += "a"
		} else {
			out += "A"
		}
		if rc.Branch(Eq(And(x, Concrete(1, 32)), Concrete(1, 32))) { // predicate #2
			out += "b"
		} else {
			out += "B"
		}
		return out
	}
	eng := NewEngine(handler, Options{})
	eng.Var("x", 32, 4) // seed: x=4 → path "aB"
	rep := eng.Explore()

	got := map[string]bool{}
	for _, p := range rep.Paths {
		got[p.Output.(string)] = true
		outputs = append(outputs, p.Output.(string))
	}
	for _, want := range []string{"aB", "ab", "AB", "Ab"} {
		if !got[want] {
			t.Errorf("path %q not explored; got %v", want, outputs)
		}
	}
	if len(rep.Paths) != 4 {
		t.Errorf("want exactly 4 distinct paths, got %d", len(rep.Paths))
	}
	if rep.Runs < 4 {
		t.Errorf("suspiciously few runs: %d", rep.Runs)
	}
}

// TestSeedPathFirst: the first explored path must correspond to the
// observed (seed) input — DiCE records the real input's constraints first.
func TestSeedPathFirst(t *testing.T) {
	handler := func(rc *RunContext) any {
		x := rc.Input("x")
		if rc.Branch(Ge(x, Concrete(100, 32))) {
			return "high"
		}
		return "low"
	}
	eng := NewEngine(handler, Options{})
	eng.Var("x", 32, 250)
	rep := eng.Explore()
	if len(rep.Paths) == 0 || rep.Paths[0].Output.(string) != "high" {
		t.Fatalf("seed path should be explored first; got %+v", rep.Paths)
	}
	if rep.Paths[0].Seq != 0 {
		t.Fatalf("seed path should have sequence 0")
	}
}

// TestNestedBranches: exploration must reach paths hidden behind earlier
// branches (aggregate constraint set growth, §2.3).
func TestNestedBranches(t *testing.T) {
	handler := func(rc *RunContext) any {
		x := rc.Input("x")
		if rc.Branch(Gt(x, Concrete(50, 32))) {
			if rc.Branch(Eq(x, Concrete(77, 32))) {
				return "bullseye"
			}
			return "high"
		}
		return "low"
	}
	eng := NewEngine(handler, Options{})
	eng.Var("x", 32, 10) // seed takes the "low" path; bullseye is two negations deep
	rep := eng.Explore()
	found := false
	for _, p := range rep.Paths {
		if p.Output.(string) == "bullseye" {
			found = true
		}
	}
	if !found {
		t.Fatalf("nested path not found; paths: %d runs: %d", len(rep.Paths), rep.Runs)
	}
	if len(rep.Paths) != 3 {
		t.Errorf("want 3 distinct paths, got %d", len(rep.Paths))
	}
}

// TestInfeasiblePathsNotExplored: contradictory nested conditions must not
// produce phantom paths.
func TestInfeasiblePathsNotExplored(t *testing.T) {
	handler := func(rc *RunContext) any {
		x := rc.Input("x")
		if rc.Branch(Lt(x, Concrete(5, 32))) {
			if rc.Branch(Gt(x, Concrete(10, 32))) {
				return "impossible"
			}
			return "small"
		}
		return "big"
	}
	eng := NewEngine(handler, Options{})
	eng.Var("x", 32, 3)
	rep := eng.Explore()
	for _, p := range rep.Paths {
		if p.Output.(string) == "impossible" {
			t.Fatal("explored an infeasible path")
		}
	}
	if len(rep.Paths) != 2 {
		t.Errorf("want 2 feasible paths, got %d", len(rep.Paths))
	}
	if rep.SolverUnsat == 0 {
		t.Error("expected at least one unsat negation query")
	}
}

// TestMultipleInputs: negation works across several symbolic variables.
func TestMultipleInputs(t *testing.T) {
	handler := func(rc *RunContext) any {
		a, b := rc.Input("a"), rc.Input("b")
		n := 0
		if rc.Branch(Eq(a, Concrete(1, 8))) {
			n |= 1
		}
		if rc.Branch(Eq(b, Concrete(2, 8))) {
			n |= 2
		}
		return n
	}
	eng := NewEngine(handler, Options{})
	eng.Var("a", 8, 0)
	eng.Var("b", 8, 0)
	rep := eng.Explore()
	got := map[int]bool{}
	for _, p := range rep.Paths {
		got[p.Output.(int)] = true
	}
	for want := 0; want < 4; want++ {
		if !got[want] {
			t.Errorf("combination %d not explored", want)
		}
	}
}

// TestUnconstrainedInputsKeepSeed: inputs not mentioned in the negated
// path keep their observed values (minimal perturbation of the message).
func TestUnconstrainedInputsKeepSeed(t *testing.T) {
	handler := func(rc *RunContext) any {
		x := rc.Input("x")
		_ = rc.Input("y") // y unused in branching
		if rc.Branch(Lt(x, Concrete(10, 32))) {
			return rc.Env()
		}
		return rc.Env()
	}
	eng := NewEngine(handler, Options{})
	eng.Var("x", 32, 3)
	eng.Var("y", 32, 999)
	rep := eng.Explore()
	if len(rep.Paths) != 2 {
		t.Fatalf("want 2 paths, got %d", len(rep.Paths))
	}
	for _, p := range rep.Paths {
		env := p.Output.(sym.Env)
		if env[1] != 999 {
			t.Errorf("unconstrained input y changed: %v", env)
		}
	}
}

// TestMaxRunsBudget: exploration stops at the run budget.
func TestMaxRunsBudget(t *testing.T) {
	handler := func(rc *RunContext) any {
		x := rc.Input("x")
		// 16 independent bit-branches → 65536 paths; budget must cut this off.
		for i := 0; i < 16; i++ {
			rc.Branch(Eq(And(Shr(x, Concrete(uint64(i), 32)), Concrete(1, 32)), Concrete(1, 32)))
		}
		return nil
	}
	eng := NewEngine(handler, Options{MaxRuns: 20})
	eng.Var("x", 32, 0)
	rep := eng.Explore()
	if rep.Runs > 20 {
		t.Fatalf("budget exceeded: %d runs", rep.Runs)
	}
	if rep.Budget != "max-runs" {
		t.Fatalf("budget reason = %q, want max-runs", rep.Budget)
	}
}

// TestConcretizeOpaque: dropping a hash constraint keeps exploration sound
// (no constraint recorded, run completes).
func TestConcretizeOpaque(t *testing.T) {
	handler := func(rc *RunContext) any {
		x := rc.Input("x")
		// Model a hash: irreversible mixing that must not be recorded.
		h := rc.ConcretizeOpaque(Mul(Xor(x, Concrete(0x9e3779b9, 32)), Concrete(0x85ebca6b, 32)))
		if rc.Branch(Lt(x, Concrete(100, 32))) {
			return h
		}
		return h
	}
	eng := NewEngine(handler, Options{})
	eng.Var("x", 32, 5)
	rep := eng.Explore()
	if len(rep.Paths) != 2 {
		t.Fatalf("want 2 paths (hash constraint dropped), got %d", len(rep.Paths))
	}
	for _, p := range rep.Paths {
		// Path constraints must mention only the explicit branch.
		for _, c := range p.Path {
			if len(c.String()) > 200 {
				t.Fatalf("hash expression leaked into path: %v", c)
			}
		}
	}
}

// TestStrategiesAllCover: all strategies fully cover a small path space.
func TestStrategiesAllCover(t *testing.T) {
	for _, strat := range []Strategy{Generational, DFS, BFS} {
		handler := func(rc *RunContext) any {
			x := rc.Input("x")
			n := 0
			if rc.Branch(Lt(x, Concrete(100, 32))) {
				n++
			}
			if rc.Branch(Eq(Mod(x, Concrete(2, 32)), Concrete(0, 32))) {
				n += 2
			}
			return n
		}
		eng := NewEngine(handler, Options{Strategy: strat})
		eng.Var("x", 32, 7)
		rep := eng.Explore()
		if len(rep.Paths) != 4 {
			t.Errorf("%v: want 4 paths, got %d", strat, len(rep.Paths))
		}
	}
}

// TestParallelWorkersEquivalent: parallel exploration finds the same path
// set as sequential.
func TestParallelWorkersEquivalent(t *testing.T) {
	build := func(workers int) map[string]bool {
		handler := func(rc *RunContext) any {
			x, y := rc.Input("x"), rc.Input("y")
			out := ""
			if rc.Branch(Lt(x, Concrete(10, 32))) {
				out += "a"
			} else {
				out += "A"
			}
			if rc.Branch(Gt(y, Concrete(5, 32))) {
				out += "b"
			} else {
				out += "B"
			}
			if rc.Branch(Eq(Add(x, y), Concrete(12, 32))) {
				out += "c"
			} else {
				out += "C"
			}
			return out
		}
		eng := NewEngine(handler, Options{Workers: workers})
		eng.Var("x", 32, 1)
		eng.Var("y", 32, 2)
		rep := eng.Explore()
		got := map[string]bool{}
		for _, p := range rep.Paths {
			got[p.Output.(string)] = true
		}
		return got
	}
	seq := build(1)
	par := build(4)
	if len(seq) != len(par) {
		t.Fatalf("sequential found %d paths, parallel %d", len(seq), len(par))
	}
	for k := range seq {
		if !par[k] {
			t.Errorf("parallel missed path %q", k)
		}
	}
}

// TestAssumeNotNegated: Assume constraints restrict exploration but are
// never negated (generated inputs always satisfy them).
func TestAssumeNotNegated(t *testing.T) {
	handler := func(rc *RunContext) any {
		ln := rc.Input("masklen")
		rc.Assume(Le(ln, Concrete(32, 8))) // well-formedness: masklen <= 32
		if rc.Branch(Gt(ln, Concrete(24, 8))) {
			return "long"
		}
		return "short"
	}
	eng := NewEngine(handler, Options{})
	eng.Var("masklen", 8, 16)
	rep := eng.Explore()
	for _, p := range rep.Paths {
		if p.Env[0] > 32 {
			t.Fatalf("generated input violates assumption: masklen=%d", p.Env[0])
		}
	}
	if len(rep.Paths) != 2 {
		t.Fatalf("want 2 paths, got %d", len(rep.Paths))
	}
}

// TestNotesPropagate: handler annotations appear in path results.
func TestNotesPropagate(t *testing.T) {
	handler := func(rc *RunContext) any {
		x := rc.Input("x")
		if rc.Branch(Eq(x, Concrete(1, 32))) {
			rc.Note("hit %d", 1)
		}
		return nil
	}
	eng := NewEngine(handler, Options{})
	eng.Var("x", 32, 1)
	rep := eng.Explore()
	found := false
	for _, p := range rep.Paths {
		for _, n := range p.Notes {
			if n == "hit 1" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("note not propagated")
	}
}

// TestInputPanicsOnUnknownName guards the instrumentation contract.
func TestInputPanicsOnUnknownName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown input name")
		}
	}()
	rc := &RunContext{env: sym.Env{}, vars: map[string]*sym.Var{}}
	rc.Input("nope")
}

func TestDuplicateVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate Var")
		}
	}()
	eng := NewEngine(func(rc *RunContext) any { return nil }, Options{})
	eng.Var("x", 32, 0)
	eng.Var("x", 32, 0)
}

func TestNoSymbolicInputs(t *testing.T) {
	// A handler with no symbolic branching yields exactly one path.
	eng := NewEngine(func(rc *RunContext) any { return 42 }, Options{})
	rep := eng.Explore()
	if len(rep.Paths) != 1 || rep.Runs != 1 {
		t.Fatalf("want 1 path / 1 run, got %d / %d", len(rep.Paths), rep.Runs)
	}
	if rep.Paths[0].Output.(int) != 42 {
		t.Fatal("output lost")
	}
}

func BenchmarkExploreTwoPredicates(b *testing.B) {
	handler := func(rc *RunContext) any {
		x := rc.Input("x")
		if rc.Branch(Lt(x, Concrete(10, 32))) {
			_ = 1
		}
		if rc.Branch(Eq(And(x, Concrete(1, 32)), Concrete(1, 32))) {
			_ = 2
		}
		return nil
	}
	for i := 0; i < b.N; i++ {
		eng := NewEngine(handler, Options{})
		eng.Var("x", 32, 4)
		rep := eng.Explore()
		if len(rep.Paths) != 4 {
			b.Fatalf("want 4 paths, got %d", len(rep.Paths))
		}
	}
}

// TestRunOnce: replaying a specific assignment reproduces the output
// exploration found for it (witness validation support), with every
// input concrete, so the replay records no path.
func TestRunOnce(t *testing.T) {
	symbolic := false
	handler := func(rc *RunContext) any {
		x := rc.Input("x")
		symbolic = symbolic || x.IsSymbolic()
		if rc.Branch(Lt(x, Concrete(10, 32))) {
			return "low"
		}
		return "high"
	}
	eng := NewEngine(handler, Options{})
	eng.Var("x", 32, 3)

	pr := eng.RunOnce(sym.Env{0: 42})
	if pr.Output.(string) != "high" {
		t.Fatalf("output = %v", pr.Output)
	}
	if symbolic {
		t.Fatal("the replay handed the handler a symbolic input")
	}
	// Unspecified variables fall back to the seed.
	pr = eng.RunOnce(sym.Env{})
	if pr.Output.(string) != "low" || pr.Env[0] != 3 {
		t.Fatalf("seed fallback broken: %v env=%v", pr.Output, pr.Env)
	}
}

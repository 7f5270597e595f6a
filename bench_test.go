// Benchmarks regenerating the paper's own evaluation — F1, E1–E4 and the
// A1/A2 ablations of DESIGN.md §4 — which benchmark/ does not measure
// yet; everything benchmark/ does measure lives only there. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics carry the experiment's headline numbers (e.g.
// impact-% for E2/E3, unique-page fractions for E1) so `-bench` output is
// directly comparable with the paper's table in EXPERIMENTS.md.
package dice

import (
	"testing"
	"time"

	"dice/internal/concolic"
	"dice/internal/core"
)

// benchScale keeps benchmark iterations fast while preserving workload
// shape; use cmd/experiments for full-scale runs.
func benchScale() core.Scale {
	return core.Scale{TableSize: 5000, UpdateCount: 250, ExploreRuns: 500, Seed: 1}
}

// BenchmarkFig1PathExploration (F1) exercises the concolic engine's
// predicate negation loop from Figure 1: one seed input, all feasible
// paths discovered by negating predicates one at a time.
func BenchmarkFig1PathExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		handler := func(rc *concolic.RunContext) any {
			x := rc.Input("x")
			n := 0
			if rc.Branch(concolic.Lt(x, concolic.Concrete(10, 32))) { // predicate #1
				n |= 1
			}
			if rc.Branch(concolic.Eq(concolic.And(x, concolic.Concrete(1, 32)), concolic.Concrete(1, 32))) { // predicate #2
				n |= 2
			}
			return n
		}
		eng := concolic.NewEngine(handler, concolic.Options{})
		eng.Var("x", 32, 4)
		rep := eng.Explore()
		if len(rep.Paths) != 4 {
			b.Fatalf("want 4 paths, got %d", len(rep.Paths))
		}
	}
}

// BenchmarkE1CheckpointMemory (E1, §4.1 memory) measures checkpoint page
// sharing and exploration clone overhead. Paper: checkpoint 3.45% unique
// pages; clones +36.93% mean / 39% max.
func BenchmarkE1CheckpointMemory(b *testing.B) {
	var last *core.E1Result
	for i := 0; i < b.N; i++ {
		res, err := core.RunE1Memory(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(100*last.UniqueFraction, "ckpt-unique-%")
		b.ReportMetric(100*last.CloneOverheadMean, "clone-mean-%")
		b.ReportMetric(100*last.CloneOverheadMax, "clone-max-%")
	}
}

// BenchmarkE2UpdateThroughputWithExploration and ...Without (E2, §4.1 CPU
// full load) measure updates/s during table load. Paper: 13.9 vs 15.1
// updates/s (8% impact).
func BenchmarkE2UpdateThroughput(b *testing.B) {
	var last *core.ThroughputResult
	for i := 0; i < b.N; i++ {
		res, err := core.RunE2FullLoad(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.UpdatesPerSecWith, "upd/s-with")
		b.ReportMetric(last.UpdatesPerSecWithout, "upd/s-without")
		b.ReportMetric(last.ImpactPercent, "impact-%")
	}
}

// BenchmarkE3SteadyState (E3, §4.1 realistic scenario) measures paced
// update replay with exploration alongside. Paper: 0.272 vs 0.287
// updates/s — negligible impact.
func BenchmarkE3SteadyState(b *testing.B) {
	var last *core.ThroughputResult
	for i := 0; i < b.N; i++ {
		s := benchScale()
		s.UpdateCount = 100
		res, err := core.RunE3Steady(s, 500*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.UpdatesPerSecWith, "upd/s-with")
		b.ReportMetric(last.UpdatesPerSecWithout, "upd/s-without")
		b.ReportMetric(last.ImpactPercent, "impact-%")
	}
}

// BenchmarkE4RouteLeakDetection (E4, §4.2) measures a full detection
// round against the misconfigured filter: exploration plus oracle. The
// paper's qualitative result — every installed victim inside the leak
// region is reported, the YouTube-analogue /22 included — is asserted.
func BenchmarkE4RouteLeakDetection(b *testing.B) {
	var findings int
	for i := 0; i < b.N; i++ {
		res, err := core.RunE4RouteLeak(benchScale(), core.BrokenCustomerFilter, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Findings) == 0 || !res.YouTubeDetected {
			b.Fatalf("detection failed: %d findings, youtube=%v", len(res.Findings), res.YouTubeDetected)
		}
		findings = len(res.Findings)
	}
	b.ReportMetric(float64(findings), "findings")
}

// BenchmarkA1SymbolicMarking (A1 ablation, §3.2) compares field-granular
// symbolic marking with raw-byte marking.
func BenchmarkA1SymbolicMarking(b *testing.B) {
	var last *core.A1Result
	for i := 0; i < b.N; i++ {
		res, err := core.RunA1SymbolicMarking(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(100*last.FieldValidRatio, "field-valid-%")
		b.ReportMetric(100*last.RawValidRatio, "raw-valid-%")
		b.ReportMetric(float64(last.FieldPolicyPaths), "field-paths")
		b.ReportMetric(float64(last.RawPolicyPaths), "raw-paths")
	}
}

// BenchmarkA2CheckpointVsReplay (A2 ablation, §2.3) compares reaching an
// exploration-ready state by checkpointing vs replaying history.
func BenchmarkA2CheckpointVsReplay(b *testing.B) {
	var last *core.A2Result
	for i := 0; i < b.N; i++ {
		res, err := core.RunA2CheckpointVsReplay(5000, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(float64(last.CheckpointTime.Microseconds()), "ckpt-µs")
		b.ReportMetric(float64(last.ReplayTime.Microseconds()), "replay-µs")
		b.ReportMetric(last.SpeedupFactor, "speedup-x")
	}
}

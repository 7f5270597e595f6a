// Benchmarks regenerating the paper's evaluation, one per experiment ID
// in DESIGN.md §4. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics carry the experiment's headline numbers (e.g.
// impact-% for E2/E3, unique-page fractions for E1) so `-bench` output is
// directly comparable with the paper's table in EXPERIMENTS.md.
package dice

import (
	"fmt"
	"testing"
	"time"

	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/trace"
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

// BenchmarkF2TopologySetup (F2) builds and converges the three-router
// topology every experiment runs on.
func BenchmarkF2TopologySetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := core.NewFig2(core.Fig2Options{})
		if err != nil {
			b.Fatal(err)
		}
		if f.Provider.RIB().Prefixes() == 0 {
			b.Fatal("no convergence")
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

// benchFig2 builds the standard exploration substrate (broken filter,
// loaded table with victims) once for the scheduler benchmarks.
func benchFig2(b *testing.B) *core.Fig2 {
	b.Helper()
	f, err := core.NewFig2(core.Fig2Options{CustomerFilter: core.BrokenCustomerFilter})
	if err != nil {
		b.Fatal(err)
	}
	s := benchScale()
	cfg := trace.DefaultGenConfig()
	cfg.TableSize = s.TableSize
	cfg.Seed = s.Seed
	recs := append(trace.Generate(cfg), core.Victims()...)
	if _, err := f.LoadTable(recs); err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkS1WorkerScaling (S1) measures exploration-round throughput as
// the scheduler's worker pool grows: the frontier/scheduler split must
// let workers solve and execute concurrently instead of serializing on
// one engine mutex.
func BenchmarkS1WorkerScaling(b *testing.B) {
	f := benchFig2(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var paths, queries int
			for i := 0; i < b.N; i++ {
				d := core.New(f.Provider, core.Options{
					Engine: concolic.Options{
						MaxRuns: benchScale().ExploreRuns,
						Workers: workers,
					},
				})
				res, err := d.ExplorePeer(core.NodeCustomer)
				if err != nil {
					b.Fatal(err)
				}
				paths = len(res.Report.Paths)
				queries = res.Report.SolverCalls
			}
			b.ReportMetric(float64(paths), "paths")
			b.ReportMetric(float64(queries), "solver-calls")
		})
	}
}

// BenchmarkS2WarmVsColdState (S2) measures what cross-round ExploreState
// buys the continuous online mode: a cold round pays the whole
// exploration; a warm round on the same seed skips every known path and
// negation. solver-calls is the headline metric — warm must be ~0.
func BenchmarkS2WarmVsColdState(b *testing.B) {
	f := benchFig2(b)
	engine := concolic.Options{MaxRuns: benchScale().ExploreRuns}

	b.Run("cold", func(b *testing.B) {
		var calls int
		for i := 0; i < b.N; i++ {
			// Fresh DiCE per round: no memory of prior rounds.
			res, err := core.New(f.Provider, core.Options{Engine: engine}).ExplorePeer(core.NodeCustomer)
			if err != nil {
				b.Fatal(err)
			}
			calls = res.Report.SolverCalls + res.Report.CacheHits
		}
		b.ReportMetric(float64(calls), "solver-calls")
	})

	b.Run("warm", func(b *testing.B) {
		d := core.New(f.Provider, core.Options{Engine: engine, ReuseState: true})
		if _, err := d.ExplorePeer(core.NodeCustomer); err != nil {
			b.Fatal(err) // priming round (the cold one)
		}
		b.ResetTimer()
		var calls, skipped int
		for i := 0; i < b.N; i++ {
			res, err := d.ExplorePeer(core.NodeCustomer)
			if err != nil {
				b.Fatal(err)
			}
			calls = res.Report.SolverCalls + res.Report.CacheHits
			skipped = res.Report.SkippedNegations
		}
		b.ReportMetric(float64(calls), "solver-calls")
		b.ReportMetric(float64(skipped), "skipped-negations")
	})
}

// BenchmarkS3NegationThroughput (S3) measures the negation hot path end
// to end: per-branch dedup-key construction, frontier folding, and the
// solver queries for every suffix negation of a deep path condition. The
// handler records a long chain of masked-bit branches — the router shape
// — so key construction and solving dominate the round. allocs/op is the
// headline metric: it counts key construction + solving garbage per
// exploration round.
func BenchmarkS3NegationThroughput(b *testing.B) {
	const depth = 24
	handler := func(rc *concolic.RunContext) any {
		x := rc.Input("x")
		y := rc.Input("y")
		n := 0
		for i := 0; i < depth; i++ {
			bit := concolic.Eq(
				concolic.And(concolic.Shr(x, concolic.Concrete(uint64(i%16), 32)), concolic.Concrete(1, 32)),
				concolic.Concrete(1, 32))
			if rc.Branch(bit) {
				n++
			}
		}
		if rc.Branch(concolic.Lt(y, concolic.Concrete(100, 16))) {
			n++
		}
		return n
	}
	b.ReportAllocs()
	var queries, paths int
	for i := 0; i < b.N; i++ {
		eng := concolic.NewEngine(handler, concolic.Options{MaxRuns: 200})
		eng.Var("x", 32, 0)
		eng.Var("y", 16, 0)
		rep := eng.Explore()
		queries = rep.SolverCalls + rep.CacheHits
		paths = len(rep.Paths)
	}
	b.ReportMetric(float64(queries), "queries")
	b.ReportMetric(float64(paths), "paths")
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

// BenchmarkFederatedRound (S4) measures one federated exploration round
// — per-node checkpoint/clone concolic exploration sharded over a shared
// worker pool, plus cross-node witness propagation and oracles — on the
// two built-in shapes: the 3-node line and the 5-node mesh (the mesh
// explores 20 peerings vs the line's 4 over the same pool). violations
// and peerings are the headline custom metrics.
func BenchmarkFederatedRound(b *testing.B) {
	shapes := []struct {
		name string
		topo func() *core.Topology
	}{
		{"line-3", func() *core.Topology { return core.LineTopology(3) }},
		{"mesh-5", func() *core.Topology { return core.MeshTopology(5) }},
		// line-3-dense: 256 extra /24s per node, so every shadow copies
		// ~2300 routes — the table-scale regime where Fabric.Shadow's
		// per-witness cost dominates and COW sharing pays.
		{"line-3-dense", func() *core.Topology { return core.DenseLineTopology(3, 256) }},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			// Fabric build + convergence is setup, not the round under
			// measurement; cold rounds (no ReuseState) are identical, so
			// one fabric serves every iteration.
			fe, err := core.NewFederatedExperiment(sh.topo(), core.FederatedOptions{
				Engine:  concolic.Options{MaxRuns: 200},
				Workers: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var peerings, violations, runs int
			for i := 0; i < b.N; i++ {
				res, err := fe.Round()
				if err != nil {
					b.Fatal(err)
				}
				peerings, violations, runs = 0, len(res.Violations), 0
				for _, tr := range res.Targets {
					if tr.Err == nil {
						peerings++
						runs += tr.Result.Report.Runs
					}
				}
			}
			b.ReportMetric(float64(peerings), "peerings")
			b.ReportMetric(float64(runs), "runs")
			b.ReportMetric(float64(violations), "violations")
		})
	}
}

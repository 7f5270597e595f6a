package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/router"
	"dice/internal/solver"
)

// These tests pin the judge/fold seam: the per-path half of a scenario's
// oracle runs inside the exploration, on whichever worker found the path,
// and nothing a caller can see may depend on which worker that was, on
// how many there were, or on the round being composed by hand.

// wideCustomerFilter is an import policy with `clauses` extra guards in
// front of the Fig. 2 misconfigured catch-all: enough distinct accepting
// paths that several workers judge at once.
func wideCustomerFilter(clauses int) string {
	var b strings.Builder
	b.WriteString("filter customer_in {\n    if net ~ 10.7.0.0/16 then accept;\n")
	for i := 0; i < clauses; i++ {
		fmt.Fprintf(&b, "    if net ~ 10.%d.0.0/16{%d,%d} then accept;\n", 20+i, 17+i%4, 22+i%5)
	}
	b.WriteString("    if net ~ 10.0.0.0/8{24,32} then accept;\n    reject;\n}")
	return b.String()
}

// wideFig2 is Fig. 2 under wideCustomerFilter with a small table and the
// paper's hijack victims loaded.
func wideFig2(t *testing.T) *Fig2 { return loadedFig2(t, wideCustomerFilter(12)) }

// loadedFig2 is Fig. 2 under the given customer filter with a small table
// and the paper's hijack victims loaded.
func loadedFig2(t *testing.T, customerFilter string) *Fig2 {
	t.Helper()
	f, err := NewFig2(Fig2Options{CustomerFilter: customerFilter})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadTable(append(smallTrace(120, 0), Victims()...)); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSnapshotIndependentOfWorkers: one worker or many, a round reports
// the same findings and the same counters — verdicts are attached to
// paths by whoever found them, but only the fold, in discovery-order-
// independent canonical form, decides what is reported.
func TestSnapshotIndependentOfWorkers(t *testing.T) {
	many := max(4, runtime.GOMAXPROCS(0)) // more goroutines than the race detector needs CPUs
	for _, scenario := range []string{ScenarioRouteLeak, ScenarioUpdate} {
		f := wideFig2(t)
		round := func(workers int) (string, *Result) {
			res, err := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 2000, Workers: workers}}).
				ExploreScenario(scenario, NodeCustomer)
			if err != nil {
				t.Fatal(err)
			}
			return strings.Join(SnapshotTarget(NodeProvider, NodeCustomer, scenario, "", res.Findings), "\n"), res
		}
		want, one := round(1)
		if len(one.Findings) < 3 {
			t.Fatalf("%s: %d findings from %d paths; nothing for several workers to share", scenario, len(one.Findings), len(one.Report.Paths))
		}
		for i := 0; i < 3; i++ {
			got, res := round(many)
			if got != want {
				t.Fatalf("%s: %d workers render\n%s\none worker renders\n%s", scenario, many, got, want)
			}
			if len(res.Report.Paths) != len(one.Report.Paths) ||
				res.WitnessesRejected != one.WitnessesRejected ||
				res.FalsePositivesFiltered != one.FalsePositivesFiltered {
				t.Fatalf("%s: %d workers: %d paths, %d rejected, %d filtered; one worker: %d, %d, %d", scenario, many,
					len(res.Report.Paths), res.WitnessesRejected, res.FalsePositivesFiltered,
					len(one.Report.Paths), one.WitnessesRejected, one.FalsePositivesFiltered)
			}
		}
	}
}

// TestFoldIgnoresPathOrder: workers hand paths to the report in whatever
// order they finish them, so a target's analysis must come out the same
// over any permutation of Report.Paths — which findings, every field of
// each, their order, and the counters. Every finding-producing scenario
// runs on Fig. 2 and on each explore edge of examples/federated, and its
// report is analyzed again reversed and under 20 seeded shuffles.
func TestFoldIgnoresPathOrder(t *testing.T) {
	example, err := LoadTopology("../../examples/federated/topo.json")
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFederatedExperiment(example, FederatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type edge struct {
		live       *router.Router
		node, peer string
	}
	edges := []edge{{wideFig2(t).Provider, NodeProvider, NodeCustomer}}
	for _, tg := range example.ResolveTargets(ScenarioRouteLeak) {
		edges = append(edges, edge{fe.Fabric.Routers[tg.Node], tg.Node, tg.Peer})
	}
	engine := concolic.Options{MaxRuns: 2000, Workers: 2}
	findings := map[string]int{}
	for _, e := range edges {
		for _, scenario := range []string{ScenarioRouteLeak, ScenarioUpdate, ScenarioWithdraw} {
			tg := ResolvedTarget{Node: e.node, Peer: e.peer, Scenario: scenario, Explicit: true}
			tp, err := PrepareTarget(e.live, tg, engine, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			rep := tp.Engine.Explore()
			want := tp.analyze(rep)
			findings[scenario] += len(want.Findings)
			orders := [][]concolic.PathResult{slices.Clone(rep.Paths)}
			slices.Reverse(orders[0])
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 20; i++ {
				ps := slices.Clone(rep.Paths)
				rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
				orders = append(orders, ps)
			}
			for i, ps := range orders {
				permuted := *rep
				permuted.Paths = ps
				got := tp.analyze(&permuted)
				if !reflect.DeepEqual(got.Findings, want.Findings) ||
					got.WitnessesRejected != want.WitnessesRejected ||
					got.FalsePositivesFiltered != want.FalsePositivesFiltered {
					t.Fatalf("%s<-%s %s, order %d of %d paths: %d rejected, %d filtered, findings\n%v\nin discovery order: %d, %d,\n%v",
						e.node, e.peer, scenario, i, len(ps), got.WitnessesRejected, got.FalsePositivesFiltered, got.Findings,
						want.WitnessesRejected, want.FalsePositivesFiltered, want.Findings)
				}
			}
		}
	}
	for _, scenario := range []string{ScenarioRouteLeak, ScenarioUpdate, ScenarioWithdraw} {
		if findings[scenario] < 2 {
			t.Errorf("%s: %d findings over every edge; nothing for an order to move", scenario, findings[scenario])
		}
	}
}

// TestReplayMatchesRecordedRun: a witness replay (Engine.RunOnce) runs
// the handler with every input concrete, recording nothing. For every
// path a round of each finding-producing scenario explores — on Fig. 2,
// under the 16-clause deep policy and on each explore edge of
// examples/federated — replaying the path's assignment must return the
// output its recording run returned.
func TestReplayMatchesRecordedRun(t *testing.T) {
	example, err := LoadTopology("../../examples/federated/topo.json")
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFederatedExperiment(example, FederatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type edge struct {
		live       *router.Router
		node, peer string
	}
	edges := []edge{
		{loadedFig2(t, BrokenCustomerFilter).Provider, NodeProvider, NodeCustomer},
		{loadedFig2(t, DeepCustomerFilter(1, 16)).Provider, NodeProvider, NodeCustomer},
	}
	for _, tg := range example.ResolveTargets(ScenarioRouteLeak) {
		edges = append(edges, edge{fe.Fabric.Routers[tg.Node], tg.Node, tg.Peer})
	}
	paths := map[string]int{}
	for _, e := range edges {
		for _, scenario := range []string{ScenarioRouteLeak, ScenarioUpdate, ScenarioWithdraw} {
			tg := ResolvedTarget{Node: e.node, Peer: e.peer, Scenario: scenario, Explicit: true}
			tp, err := PrepareTarget(e.live, tg, concolic.Options{MaxRuns: 2000, Workers: 2}, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tp.Engine.Explore().Paths {
				if r := tp.Engine.RunOnce(p.Env); !reflect.DeepEqual(r.Output, p.Output) {
					t.Fatalf("%s<-%s %s, path %d (%v): the replay returned\n%+v\nthe recording run\n%+v",
						e.node, e.peer, scenario, p.Seq, p.Env, r.Output, p.Output)
				}
				paths[scenario]++
			}
		}
	}
	for _, scenario := range []string{ScenarioRouteLeak, ScenarioUpdate, ScenarioWithdraw} {
		if paths[scenario] < 8 {
			t.Errorf("%s: %d paths over every edge; too few to replay", scenario, paths[scenario])
		}
		t.Logf("%s: %d paths replayed", scenario, paths[scenario])
	}
}

// countedLeak is the routeleak scenario under another name, counting its
// judge's calls.
type countedLeak struct {
	routeleakScenario
	judged *atomic.Int64
}

func (countedLeak) Name() string { return "routeleak-counted" }

func (c countedLeak) Judge(round *Round, p *concolic.PathResult, sv *solver.Solver) any {
	c.judged.Add(1)
	return c.routeleakScenario.Judge(round, p, sv)
}

var (
	countedLeakOnce   sync.Once
	countedLeakJudged atomic.Int64
)

// TestWarmRoundJudgesNothing: the judge runs once per path new to the
// round — and a ReuseState round over an unchanged node finds none, so it
// judges nothing, asks the solver nothing and reports nothing twice.
func TestWarmRoundJudgesNothing(t *testing.T) {
	countedLeakOnce.Do(func() { RegisterScenario(countedLeak{judged: &countedLeakJudged}) })
	f := wideFig2(t)
	d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 2000, Workers: 2}, ReuseState: true})

	before := countedLeakJudged.Load()
	cold, err := d.ExploreScenario("routeleak-counted", NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	judged := countedLeakJudged.Load() - before
	if judged == 0 || int(judged) != len(cold.Report.Paths) {
		t.Fatalf("cold round: judge called %d times for %d new paths", judged, len(cold.Report.Paths))
	}
	if len(cold.Findings) == 0 {
		t.Fatal("cold round found nothing")
	}

	before = countedLeakJudged.Load()
	warm, err := d.ExploreScenario("routeleak-counted", NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if n := countedLeakJudged.Load() - before; n != 0 {
		t.Errorf("warm round: judge called %d times", n)
	}
	if warm.Report.SolverCalls != 0 || len(warm.Report.Paths) != 0 || len(warm.Findings) != 0 {
		t.Errorf("warm round: %d solver calls, %d new paths, %d findings; want none",
			warm.Report.SolverCalls, len(warm.Report.Paths), len(warm.Findings))
	}
}

// customBoundaryTopo is the leaking 3-AS line under a no-export community
// that is not the RFC 1997 one.
func customBoundaryTopo() *Topology {
	topo := leakTopo3AS(false)
	topo.NoExportCommunity = "64999:13"
	return topo
}

// TestRecomposedRoundMatchesRound: benchmark/trace.go times a round by
// recomposing it from the public pieces — PrepareTarget on resolved
// targets, ExploreFleet, TargetPrep.Analyze with the topology's boundary,
// WitnessRefs, CheckWitness. That composition must render what Round()
// renders, including under a non-default boundary: the oracle now runs
// between the first two calls, so the boundary has to be known at
// PrepareTarget, which only ResolveTargets can have told it.
func TestRecomposedRoundMatchesRound(t *testing.T) {
	ref, err := NewFederatedExperiment(customBoundaryTopo(), fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Round()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(res.Snapshot(), "\n")
	if res.WitnessesInjected == 0 || len(res.Violations) == 0 {
		t.Fatalf("reference round injected %d witnesses, %d violations; nothing to compare", res.WitnessesInjected, len(res.Violations))
	}

	topo := customBoundaryTopo()
	fe, err := NewFederatedExperiment(topo, fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	boundary, err := topo.BoundaryCommunity()
	if err != nil {
		t.Fatal(err)
	}
	engine := fedOpts().Engine
	got := &FederatedResult{}
	var preps []*TargetPrep
	var members []concolic.FleetMember
	for _, tg := range topo.ResolveTargets(ScenarioRouteLeak) {
		got.Targets = append(got.Targets, FederatedTargetResult{Node: tg.Node, Peer: tg.Peer, Scenario: tg.Scenario})
		tp, err := PrepareTarget(fe.Fabric.Routers[tg.Node], tg, engine, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		preps = append(preps, tp)
		members = append(members, concolic.FleetMember{ID: tg.Node, Engine: tp.Engine})
	}
	reports := concolic.ExploreFleet(members, fedOpts().Workers)
	seen := map[string]bool{}
	for i, tp := range preps {
		tg := tp.Target
		r := tp.Analyze(fe.Fabric.Routers[tg.Node], engine, boundary, reports[i])
		got.Targets[i].Result = r
		for _, wr := range tp.WitnessRefs(r) {
			key := WitnessKey(tg.Node, tg.Peer, wr.Update)
			if seen[key] {
				continue
			}
			seen[key] = true
			r.Findings[wr.Finding].Witness = wr.Update
			out, err := fe.CheckWitness(tg.Node, tg.Peer, wr.Update)
			if err != nil {
				t.Fatal(err)
			}
			got.WitnessesInjected++
			got.PropagationSteps += out.Steps
			got.Violations = append(got.Violations, out.Violations...)
		}
	}
	if s := strings.Join(got.Snapshot(), "\n"); s != want {
		t.Fatalf("recomposed round renders\n%s\nRound() renders\n%s", s, want)
	}
}

// TestRecomposedNodeRoundMatchesExploreScenario: the single-node shape of
// the same recomposition — a hand-built target, as benchmark/node.go
// builds it — against ExploreScenario, under the default boundary (the
// target's zero value and Analyze's zero both mean NO_EXPORT) and under a
// custom one.
func TestRecomposedNodeRoundMatchesExploreScenario(t *testing.T) {
	for _, boundary := range []uint32{0, bgp.MakeCommunity(64999, 13)} {
		f := wideFig2(t)
		engine := concolic.Options{MaxRuns: 2000, Workers: 2}
		res, err := New(f.Provider, Options{Engine: engine, LeakBoundaryCommunity: boundary}).
			ExploreScenario(ScenarioRouteLeak, NodeCustomer)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Join(SnapshotTarget(NodeProvider, NodeCustomer, ScenarioRouteLeak, "", res.Findings), "\n")
		if len(res.Findings) == 0 {
			t.Fatalf("boundary %#x: no findings", boundary)
		}

		tg := ResolvedTarget{Node: NodeProvider, Peer: NodeCustomer, Scenario: ScenarioRouteLeak, Explicit: true, Boundary: boundary}
		tp, err := PrepareTarget(f.Provider, tg, engine, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		reports := concolic.ExploreFleet([]concolic.FleetMember{{ID: tg.Node, Engine: tp.Engine}}, engine.Workers)
		r := tp.Analyze(f.Provider, engine, boundary, reports[0])
		if got := strings.Join(SnapshotTarget(tg.Node, tg.Peer, tg.Scenario, "", r.Findings), "\n"); got != want {
			t.Fatalf("boundary %#x: recomposed round renders\n%s\nExploreScenario renders\n%s", boundary, got, want)
		}
	}
}

// TestAnalyzeRefusesAnotherBoundary: the judge has already used the
// boundary the target was prepared with, so an Analyze that names a
// different one cannot be honoured — it must fail loudly, naming both,
// not report findings about the wrong community.
func TestAnalyzeRefusesAnotherBoundary(t *testing.T) {
	topo := customBoundaryTopo()
	fe, err := NewFederatedExperiment(topo, fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	tg := topo.ResolveTargets(ScenarioRouteLeak)[0]
	tp, err := PrepareTarget(fe.Fabric.Routers[tg.Node], tg, fedOpts().Engine, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rep := tp.Engine.Explore()
	defer func() {
		msg := fmt.Sprint(recover())
		custom, rfc := fmt.Sprintf("%#x", bgp.MakeCommunity(64999, 13)), fmt.Sprintf("%#x", uint32(bgp.CommunityNoExport))
		if !strings.Contains(msg, custom) || !strings.Contains(msg, rfc) {
			t.Fatalf("Analyze with the default boundary on a target prepared with 64999:13: recovered %q, want a panic naming %s and %s", msg, custom, rfc)
		}
	}()
	tp.Analyze(fe.Fabric.Routers[tg.Node], fedOpts().Engine, 0, rep)
}

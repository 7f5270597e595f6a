package core

import (
	"errors"
	"strings"
	"testing"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/router"
)

// leakTopo3AS builds the 3-AS line of examples/routeleak: customer —
// provider — upstream, with the provider's import filter carrying the
// §4.2 hole. honorNoExport selects the provider's export policy toward
// the upstream: honoring NO_EXPORT (correct) or accept-all (the leak).
func leakTopo3AS(honorNoExport bool) *Topology {
	export := []string{
		"filter upstream_out {",
		"    accept;",
		"}",
	}
	if honorNoExport {
		export = []string{
			"filter upstream_out {",
			"    if community (65535,65281) then reject;",
			"    accept;",
			"}",
		}
	}
	provCfg := []string{
		"router id 10.0.0.2;",
		"local as 65002;",
		"filter customer_in {",
		"    if net ~ 10.7.0.0/16 then accept;",
		"    if net ~ 10.0.0.0/8{24,32} then accept;",
		"    reject;",
		"}",
	}
	provCfg = append(provCfg, export...)
	provCfg = append(provCfg,
		"peer customer { remote 10.0.0.1 as 65001; import filter customer_in; }",
		"peer upstream { remote 10.0.0.3 as 65003; export filter upstream_out; }",
	)
	return &Topology{
		Name: "routeleak-3as",
		Nodes: []TopoNode{
			{Name: "customer", Config: []string{
				"router id 10.0.0.1;",
				"local as 65001;",
				"network 10.7.0.0/16;",
				"peer provider { remote 10.0.0.2 as 65002; }",
			}},
			{Name: "provider", Config: provCfg},
			{Name: "upstream", Config: []string{
				"router id 10.0.0.3;",
				"local as 65003;",
				"peer provider { remote 10.0.0.2 as 65002; }",
			}},
		},
		Edges: []TopoEdge{
			{A: "customer", B: "provider"},
			{A: "provider", B: "upstream"},
		},
		Explore: []ExploreTarget{
			{Node: "provider", Peer: "customer", Scenario: ScenarioRouteLeak},
		},
	}
}

func fedOpts() FederatedOptions {
	return FederatedOptions{
		Engine:  concolic.Options{MaxRuns: 1000},
		Workers: 2,
	}
}

// TestFederatedRouteLeakCrossNode is the acceptance scenario: per-node
// exploration finds the provider exporting NO_EXPORT-tagged customer
// routes, the concrete witness propagates across the shadow topology,
// and the cross-node oracles confirm the leak at the upstream plus the
// multi-hop blackhole behind the import filter's hole.
func TestFederatedRouteLeakCrossNode(t *testing.T) {
	fe, err := NewFederatedExperiment(leakTopo3AS(false), fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	livePrefixes := map[string]int{}
	for name, r := range fe.Fabric.Routers {
		livePrefixes[name] = r.RIB().Prefixes()
	}
	res, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 1 || res.Targets[0].Err != nil {
		t.Fatalf("targets: %+v", res.Targets)
	}
	local := res.Targets[0].Result
	if len(local.Findings) == 0 {
		t.Fatalf("no local route-leak findings (report: %d paths, %d runs)",
			len(local.Report.Paths), local.Report.Runs)
	}
	for _, f := range local.Findings {
		if f.Kind != "route-leak" || !f.Validated {
			t.Errorf("unexpected finding %+v", f)
		}
	}
	if res.WitnessesInjected == 0 {
		t.Fatal("no witnesses propagated cross-node")
	}
	if res.PropagationSteps == 0 {
		t.Error("witness propagation delivered no messages")
	}

	kinds := map[string]int{}
	for _, v := range res.Violations {
		kinds[v.Kind]++
		if v.Kind == "route-leak" && v.Node != "upstream" {
			t.Errorf("route leak observed at %q, want upstream: %s", v.Node, v)
		}
	}
	if kinds["route-leak"] == 0 {
		t.Errorf("cross-node oracle confirmed no route leak; violations: %v", res.Violations)
	}
	if kinds["multi-hop-blackhole"] == 0 {
		t.Errorf("no multi-hop blackhole despite the import hole; violations: %v", res.Violations)
	}
	if kinds["stale-route"] != 0 {
		t.Errorf("withdraw propagation left stale routes: %v", res.Violations)
	}

	// Shadow isolation: witness propagation must not touch the live
	// fabric — every live routing table keeps its pre-round size.
	for name, r := range fe.Fabric.Routers {
		if got := r.RIB().Prefixes(); got != livePrefixes[name] {
			t.Errorf("live %s RIB grew %d → %d prefixes: witnesses leaked out of the shadow",
				name, livePrefixes[name], got)
		}
	}
}

// TestFederatedNoLeakWhenHonored: with the provider honoring NO_EXPORT
// on export, the same exploration yields no route-leak findings and no
// cross-node violations.
func TestFederatedNoLeakWhenHonored(t *testing.T) {
	fe, err := NewFederatedExperiment(leakTopo3AS(true), fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Targets[0].Result.Findings); n != 0 {
		t.Errorf("%d local findings on the honoring config: %v", n, res.Targets[0].Result.Findings)
	}
	for _, v := range res.Violations {
		if v.Kind == "route-leak" {
			t.Errorf("route-leak violation on the honoring config: %s", v)
		}
	}
}

// TestFederatedCustomBoundary: a topology-level no_export_community must
// flow through to the routeleak oracle (solver query, witness validation)
// and to the cross-node leak check — findings carry the custom community
// and the leak is still confirmed at the upstream.
func TestFederatedCustomBoundary(t *testing.T) {
	topo := leakTopo3AS(false)
	topo.NoExportCommunity = "64999:13"
	fe, err := NewFederatedExperiment(topo, fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	findings := res.Targets[0].Result.Findings
	if len(findings) == 0 {
		t.Fatal("no findings with a custom boundary community")
	}
	want := uint64(bgp.MakeCommunity(64999, 13))
	for _, f := range findings {
		if got := f.Input[router.LeakCommunity]; got != want {
			t.Errorf("finding community = %#x, want %#x", got, want)
		}
	}
	leaks := 0
	for _, v := range res.Violations {
		if v.Kind == "route-leak" {
			leaks++
		}
	}
	if leaks == 0 {
		t.Errorf("custom-boundary witness produced no cross-node route-leak; violations: %v", res.Violations)
	}
}

// TestFederatedCommunityGatedImport: when acceptance itself hinges on a
// community (import accepts only 65001:7), the accepting path's
// constraints must keep the symbolic community equality — the solver
// query "path ∧ community == boundary" is then Unsat, so the oracle
// reports nothing and, crucially, rejects no witnesses. A dropped
// constraint would instead produce a Sat query whose witness fails
// re-execution (WitnessesRejected > 0).
func TestFederatedCommunityGatedImport(t *testing.T) {
	topo := leakTopo3AS(false)
	topo.Nodes[1].Config = []string{
		"router id 10.0.0.2;",
		"local as 65002;",
		"filter customer_in {",
		"    if community (65001,7) then accept;",
		"    reject;",
		"}",
		"peer customer { remote 10.0.0.1 as 65001; import filter customer_in; }",
		"peer upstream { remote 10.0.0.3 as 65003; }",
	}
	fe, err := NewFederatedExperiment(topo, fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	r := res.Targets[0].Result
	if r.WitnessesRejected != 0 {
		t.Errorf("%d witnesses rejected: the accepting path lost its community constraint", r.WitnessesRejected)
	}
	if len(r.Findings) != 0 {
		t.Errorf("unexpected findings on a community-gated import: %v", r.Findings)
	}
	// Exploration must still have discovered the community-gated accept.
	accepted := false
	for _, p := range r.Report.Paths {
		if out, ok := p.Output.(router.Outcome); ok && out.Accepted {
			accepted = true
			if out.Community != bgp.MakeCommunity(65001, 7) {
				t.Errorf("accepting run carried community %#x, want 65001:7", out.Community)
			}
		}
	}
	if !accepted {
		t.Error("exploration never steered the community onto the gating value")
	}
}

// TestFederatedOscillationBound: an absurdly small propagation budget
// must trip the persistent-oscillation oracle instead of hanging or
// silently under-propagating.
func TestFederatedOscillationBound(t *testing.T) {
	opts := fedOpts()
	opts.MaxPropagationSteps = 1
	fe, err := NewFederatedExperiment(leakTopo3AS(false), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	osc := 0
	for _, v := range res.Violations {
		if v.Kind == "persistent-oscillation" {
			osc++
			// The wave telemetry separates this case — a healthy line
			// cut off by an absurdly tight bound — from genuine
			// divergence: only a single delivery wave ever ran, where
			// examples/badgadget shows a long steady-state tail.
			if v.Waves != 1 || len(v.WaveTail) != 1 {
				t.Errorf("1-step bound should record exactly one wave: waves=%d tail=%v", v.Waves, v.WaveTail)
			}
		}
	}
	if osc == 0 {
		t.Errorf("propagation bound of 1 step tripped no oscillation oracle: %v", res.Violations)
	}
}

// TestFederatedWarmRounds: with ReuseState, a second round over the same
// fabric skips the first round's work per node.
func TestFederatedWarmRounds(t *testing.T) {
	opts := fedOpts()
	opts.ReuseState = true
	fe, err := NewFederatedExperiment(leakTopo3AS(false), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Round(); err != nil {
		t.Fatal(err)
	}
	warm, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	rep := warm.Targets[0].Result.Report
	if len(rep.Paths) != 0 {
		t.Errorf("warm round reported %d new paths, want 0", len(rep.Paths))
	}
	if rep.SkippedNegations == 0 {
		t.Error("warm round skipped no negations")
	}
	ids := fe.States().NodeIDs()
	if len(ids) != 1 || !strings.HasPrefix(ids[0], "provider/") {
		t.Errorf("state map keys = %v, want one provider/... entry", ids)
	}
}

// TestFederatedDefaultTargets: with no explore list, every edge explores
// both directions, skipping (not failing) peerings with no observed seed.
func TestFederatedDefaultTargets(t *testing.T) {
	topo := leakTopo3AS(false)
	topo.Explore = nil
	fe, err := NewFederatedExperiment(topo, fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 4 {
		t.Fatalf("%d targets for 2 edges, want 4", len(res.Targets))
	}
	ran, skipped := 0, 0
	for _, tr := range res.Targets {
		if tr.Err != nil {
			skipped++
		} else {
			ran++
		}
	}
	if ran == 0 {
		t.Error("no defaulted target ran")
	}
	// The upstream originates nothing, so provider←upstream has no seed.
	if skipped == 0 {
		t.Error("expected at least one skipped target (no observed seed)")
	}
}

// TestParseTopology covers format validation.
func TestParseTopology(t *testing.T) {
	good := `{
	  "name": "t",
	  "nodes": [
	    {"name": "a", "config": ["router id 10.0.0.1;", "local as 1;", "peer b { remote 10.0.0.2 as 2; }"]},
	    {"name": "b", "config": ["router id 10.0.0.2;", "local as 2;", "peer a { remote 10.0.0.1 as 1; }"]}
	  ],
	  "edges": [{"a": "a", "b": "b", "latency_ms": 2}],
	  "explore": [{"node": "a", "peer": "b"}]
	}`
	topo, err := ParseTopology([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := topo.BoundaryCommunity(); c != 0xFFFFFF01 {
		t.Errorf("default boundary community = %#x, want RFC1997 NO_EXPORT", c)
	}
	if _, err := topo.Build(); err != nil {
		t.Errorf("build: %v", err)
	}

	bad := []string{
		`{"name":"x","nodes":[{"name":"a","config":["x"]}],"edges":[]}`,                                                                           // 1 node
		`{"name":"x","nodes":[{"name":"a","config":["x"]},{"name":"a","config":["x"]}],"edges":[{"a":"a","b":"a"}]}`,                              // dup node
		`{"name":"x","nodes":[{"name":"a","config":["x"]},{"name":"b","config":["x"]}],"edges":[{"a":"a","b":"c"}]}`,                              // unknown edge node
		`{"name":"x","nodes":[{"name":"a","config":["x"]},{"name":"b","config":["x"]}],"edges":[]}`,                                               // no edges
		`{"name":"x","no_export_community":"nope","nodes":[{"name":"a","config":["x"]},{"name":"b","config":["x"]}],"edges":[{"a":"a","b":"b"}]}`, // bad community
		`{"name":"x","bogus":1,"nodes":[{"name":"a","config":["x"]},{"name":"b","config":["x"]}],"edges":[{"a":"a","b":"b"}]}`,                    // unknown field
	}
	for i, src := range bad {
		if _, err := ParseTopology([]byte(src)); err == nil {
			t.Errorf("bad topology %d parsed without error", i)
		}
	}
}

// TestBuiltinTopologies: the generated line and mesh shapes build,
// converge and run a federated round end to end.
func TestBuiltinTopologies(t *testing.T) {
	for _, topo := range []*Topology{LineTopology(3), MeshTopology(4)} {
		fe, err := NewFederatedExperiment(topo, FederatedOptions{
			Engine:  concolic.Options{MaxRuns: 200},
			Workers: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
		res, err := fe.Round()
		if err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
		ran := 0
		for _, tr := range res.Targets {
			if tr.Err == nil && tr.Result.Report.Runs > 0 {
				ran++
			}
		}
		if ran == 0 {
			t.Errorf("%s: no target explored", topo.Name)
		}
	}
}

// TestTraceForward walks the shared forward trace over fake answer sets:
// every way a walk can end, plus the lookup error both backends rely on
// to abort it.
func TestTraceForward(t *testing.T) {
	fwd := func(next string) ForwardHop { return ForwardHop{HasCovering: true, NextPeer: next} }
	local := ForwardHop{HasCovering: true, Local: true}
	boom := errors.New("agent gone")
	cases := []struct {
		name      string
		answers   map[string]ForwardHop
		failAt    string
		terminal  string
		hops      int
		delivered bool
		path      string
	}{
		{name: "delivered at a local route", answers: map[string]ForwardHop{"a": fwd("b"), "b": fwd("c"), "c": local},
			terminal: "c", hops: 2, delivered: true, path: "a b c"},
		{name: "delivered at the origin", answers: map[string]ForwardHop{"a": local},
			terminal: "a", delivered: true, path: "a"},
		{name: "dead end", answers: map[string]ForwardHop{"a": fwd("b"), "b": {}},
			terminal: "b", hops: 1, path: "a b"},
		{name: "forwarding loop", answers: map[string]ForwardHop{"a": fwd("b"), "b": fwd("c"), "c": fwd("b")},
			terminal: "b", hops: 3, path: "a b c b"},
		{name: "next hop is no configured peer", answers: map[string]ForwardHop{"a": fwd("b"), "b": fwd("")},
			terminal: "b", hops: 1, path: "a b"},
		{name: "next peer outside the answer set", answers: map[string]ForwardHop{"a": fwd("ghost")},
			terminal: "ghost", hops: 1, path: "a ghost"},
		{name: "origin not in the answer set", answers: map[string]ForwardHop{"b": local},
			terminal: "a", path: "a"},
		{name: "lookup error aborts the walk", answers: map[string]ForwardHop{"a": fwd("b"), "b": fwd("c"), "c": local}, failAt: "b",
			terminal: "b", hops: 1, path: "a b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			asked := map[string]int{}
			terminal, hops, delivered, path, err := TraceForward("a", func(node string) (ForwardHop, error) {
				asked[node]++
				if node == tc.failAt {
					return ForwardHop{}, boom
				}
				return tc.answers[node], nil
			})
			if (tc.failAt != "") != (err != nil) || (err != nil && err != boom) {
				t.Fatalf("err = %v, failAt = %q", err, tc.failAt)
			}
			if terminal != tc.terminal || hops != tc.hops || delivered != tc.delivered || strings.Join(path, " ") != tc.path {
				t.Errorf("got terminal=%s hops=%d delivered=%t path=%v, want terminal=%s hops=%d delivered=%t path=[%s]",
					terminal, hops, delivered, path, tc.terminal, tc.hops, tc.delivered, tc.path)
			}
			for node, n := range asked {
				if n > 1 {
					t.Errorf("%s looked up %d times in one walk", node, n)
				}
			}
		})
	}
}

package dist

import (
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dice/internal/concolic"
	"dice/internal/core"
)

// fedOpts is the shared round configuration: a run budget generous
// enough that exploration exhausts the frontier on the example filters,
// so both backends discover the same path sets regardless of worker
// scheduling.
func fedOpts() core.FederatedOptions {
	return core.FederatedOptions{
		Engine:  concolic.Options{MaxRuns: 1000},
		Workers: 2,
	}
}

// loopbackCoordinator builds one in-process agent per topology node and
// connects a coordinator to all of them over the pipe transport.
func loopbackCoordinator(t *testing.T, topo *core.Topology, opts core.FederatedOptions, copts ...ConnOption) *Coordinator {
	t.Helper()
	var dialers []Dialer
	for _, n := range topo.Nodes {
		ag, err := NewAgent(topo, n.Name)
		if err != nil {
			t.Fatalf("agent %s: %v", n.Name, err)
		}
		dialers = append(dialers, Loopback{Agent: ag})
	}
	c, err := Connect(topo, opts, dialers, copts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// findingKey reduces a finding to every wire-carried field except Seq —
// the run sequence number depends on worker scheduling (shared fleet
// pool in-process vs solo engine on the agent), so it is shipped for
// operator reports but excluded from the parity contract.
func findingKey(f core.Finding) string {
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d|%s|%t|%v",
		f.Kind, f.Peer, f.Prefix, f.LeakRange, f.OriginAS, f.VictimAS, f.VictimPrefix, f.Validated, f.SpreadTo)
}

func sortedViolations(vs []core.FederatedViolation) []string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		out = append(out, v.String())
	}
	sort.Strings(out)
	return out
}

// TestDistributedParityFederatedExample is the acceptance criterion:
// on examples/federated/topo.json, a distributed round over loopback
// agents must reproduce the in-process FederatedExperiment — the same
// cross-node violations and the same per-target local findings, up to
// ordering.
func TestDistributedParityFederatedExample(t *testing.T) {
	topo, err := core.LoadTopology("../../examples/federated/topo.json")
	if err != nil {
		t.Fatal(err)
	}

	fe, err := core.NewFederatedExperiment(topo, fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}

	coord := loopbackCoordinator(t, topo, fedOpts())
	dist, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}

	// Same targets, in resolution order.
	if len(dist.Targets) != len(inproc.Targets) {
		t.Fatalf("distributed round ran %d targets, in-process %d", len(dist.Targets), len(inproc.Targets))
	}
	for i, dt := range dist.Targets {
		it := inproc.Targets[i]
		if dt.Node != it.Node || dt.Peer != it.Peer || dt.Scenario != it.Scenario {
			t.Fatalf("target %d: distributed %s/%s/%s vs in-process %s/%s/%s",
				i, dt.Node, dt.Peer, dt.Scenario, it.Node, it.Peer, it.Scenario)
		}
		if (dt.Skipped != "") != (it.Err != nil) {
			t.Errorf("target %d: skipped mismatch: %q vs %v", i, dt.Skipped, it.Err)
			continue
		}
		if it.Err != nil {
			continue
		}
		var want, got []string
		for _, f := range it.Result.Findings {
			want = append(want, findingKey(f))
		}
		for _, f := range dt.Findings {
			got = append(got, findingKey(f))
		}
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("target %d (%s←%s) findings differ:\n distributed: %v\n in-process:  %v",
				i, dt.Node, dt.Peer, got, want)
		}
		if dt.Explore.Runs == 0 && it.Result.Report.Runs > 0 {
			t.Errorf("target %d: distributed agent reported 0 runs, in-process %d", i, it.Result.Report.Runs)
		}
	}

	// Same witness traffic through the same caps.
	if dist.WitnessesInjected != inproc.WitnessesInjected || dist.WitnessesSkipped != inproc.WitnessesSkipped {
		t.Errorf("witnesses: distributed %d injected / %d skipped, in-process %d / %d",
			dist.WitnessesInjected, dist.WitnessesSkipped, inproc.WitnessesInjected, inproc.WitnessesSkipped)
	}
	if dist.PropagationSteps != inproc.PropagationSteps {
		t.Errorf("propagation steps: distributed %d, in-process %d", dist.PropagationSteps, inproc.PropagationSteps)
	}

	// The headline: identical cross-node oracle verdicts.
	got, want := sortedViolations(dist.Violations), sortedViolations(inproc.Violations)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cross-node violations differ:\n distributed: %v\n in-process:  %v", got, want)
	}
	if len(want) == 0 {
		t.Error("parity vacuous: the in-process round found no violations on the example topology")
	}
}

// TestDistributedParityDefaultTargets: with no explore list the round
// defaults to every edge in both directions, and some directions have
// no observed seed. Both backends must report the same targets in the
// same (resolution) order, with the same ran/skipped split.
func TestDistributedParityDefaultTargets(t *testing.T) {
	topoA := leakTopo3()
	topoA.Explore = nil
	fe, err := core.NewFederatedExperiment(topoA, fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}

	topoB := leakTopo3()
	topoB.Explore = nil
	coord := loopbackCoordinator(t, topoB, fedOpts())
	dist, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}

	if len(dist.Targets) != len(inproc.Targets) {
		t.Fatalf("distributed ran %d targets, in-process %d", len(dist.Targets), len(inproc.Targets))
	}
	skipped := 0
	for i, dt := range dist.Targets {
		it := inproc.Targets[i]
		if dt.Node != it.Node || dt.Peer != it.Peer {
			t.Errorf("target %d: distributed %s/%s vs in-process %s/%s", i, dt.Node, dt.Peer, it.Node, it.Peer)
		}
		if (dt.Skipped != "") != (it.Err != nil) {
			t.Errorf("target %d (%s←%s): skipped mismatch: %q vs %v", i, dt.Node, dt.Peer, dt.Skipped, it.Err)
		}
		if dt.Skipped != "" {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("expected at least one skipped defaulted target (no observed seed)")
	}
	got, want := sortedViolations(dist.Violations), sortedViolations(inproc.Violations)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("violations differ:\n distributed: %v\n in-process:  %v", got, want)
	}
}

// leakTopo3 is a 3-AS chain whose provider leaks NO_EXPORT-tagged
// customer routes upstream — the smallest topology where the cross-node
// leak oracle fires.
func leakTopo3() *core.Topology {
	return &core.Topology{
		Name: "dist-leak-3as",
		Nodes: []core.TopoNode{
			{Name: "customer", Config: []string{
				"router id 10.0.0.1;",
				"local as 65001;",
				"network 10.7.0.0/16;",
				"peer provider { remote 10.0.0.2 as 65002; }",
			}},
			{Name: "provider", Config: []string{
				"router id 10.0.0.2;",
				"local as 65002;",
				"filter customer_in {",
				"    if net ~ 10.7.0.0/16 then accept;",
				"    if net ~ 10.0.0.0/8{24,32} then accept;",
				"    reject;",
				"}",
				"peer customer { remote 10.0.0.1 as 65001; import filter customer_in; }",
				"peer upstream { remote 10.0.0.3 as 65003; }",
			}},
			{Name: "upstream", Config: []string{
				"router id 10.0.0.3;",
				"local as 65003;",
				"peer provider { remote 10.0.0.2 as 65002; }",
			}},
		},
		Edges: []core.TopoEdge{
			{A: "customer", B: "provider"},
			{A: "provider", B: "upstream"},
		},
		Explore: []core.ExploreTarget{
			{Node: "provider", Peer: "customer", Scenario: core.ScenarioRouteLeak},
		},
	}
}

// TestDistributedLoopbackSmoke is the CI loopback smoke: a full
// distributed round on the 3-AS leak chain confirms a route leak
// cross-node, entirely over the wire protocol.
func TestDistributedLoopbackSmoke(t *testing.T) {
	coord := loopbackCoordinator(t, leakTopo3(), fedOpts())
	res, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 1 || res.Targets[0].Skipped != "" {
		t.Fatalf("targets: %+v", res.Targets)
	}
	if len(res.Targets[0].Findings) == 0 {
		t.Fatalf("no local findings (agent ran %d runs)", res.Targets[0].Explore.Runs)
	}
	if res.WitnessesInjected == 0 {
		t.Fatal("no witnesses propagated cross-domain")
	}
	kinds := map[string]int{}
	for _, v := range res.Violations {
		kinds[v.Kind]++
	}
	if kinds["route-leak"] == 0 {
		t.Errorf("no cross-node route-leak confirmed; violations: %v", res.Violations)
	}
	if kinds["stale-route"] != 0 {
		t.Errorf("withdraw wave left stale routes: %v", res.Violations)
	}
}

// TestDistributedTCP is the end-to-end smoke over real sockets: one
// listener per agent, a coordinator dialing TCP, a full round with a
// confirmed cross-node violation.
func TestDistributedTCP(t *testing.T) {
	topo := leakTopo3()
	var dialers []Dialer
	for _, n := range topo.Nodes {
		ag, err := NewAgent(topo, n.Name)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go ag.ListenAndServe(ln) //nolint:errcheck // ends when ln closes
		dialers = append(dialers, TCPDialer{Addr: ln.Addr().String()})
	}
	coord, err := Connect(topo, fedOpts(), dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	res, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}
	leaks := 0
	for _, v := range res.Violations {
		if v.Kind == "route-leak" {
			leaks++
		}
	}
	if leaks == 0 {
		t.Errorf("TCP round confirmed no route leak; violations: %v", res.Violations)
	}
}

// TestDistributedWarmRounds: with ReuseState the agents keep per-node
// exploration state across rounds — the second round reports no new
// paths and skips known negations, without the state crossing the wire.
func TestDistributedWarmRounds(t *testing.T) {
	opts := fedOpts()
	opts.ReuseState = true
	coord := loopbackCoordinator(t, leakTopo3(), opts)
	if _, err := coord.Round(); err != nil {
		t.Fatal(err)
	}
	warm, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}
	ex := warm.Targets[0].Explore
	if ex.NewPaths != 0 {
		t.Errorf("warm round reported %d new paths, want 0", ex.NewPaths)
	}
	if ex.SkippedNegations == 0 {
		t.Error("warm round skipped no negations")
	}
}

// TestDistributedCheckpoint: the Checkpoint RPC's serialized state must
// round-trip through core.ExploreSnapshot — restore off-node and explore
// to the same findings the owning agent reports. This is the §2.4
// "process these messages in isolation over their checkpointed states"
// surface of the protocol.
func TestDistributedCheckpoint(t *testing.T) {
	topo := leakTopo3()
	ag, err := NewAgent(topo, "provider")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Loopback{Agent: ag}.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	defer cl.Close()

	var ck CheckpointResult
	if err := cl.Call(MethodCheckpoint, nil, &ck); err != nil {
		t.Fatal(err)
	}
	if len(ck.State) == 0 || ck.Pages == 0 {
		t.Fatalf("empty checkpoint: %d bytes, %d pages", len(ck.State), ck.Pages)
	}

	// A second checkpoint of unchanged state must share every page.
	var ck2 CheckpointResult
	if err := cl.Call(MethodCheckpoint, nil, &ck2); err != nil {
		t.Fatal(err)
	}
	if ck2.UniquePages != 0 {
		t.Errorf("unchanged node re-checkpointed with %d unique pages, want 0", ck2.UniquePages)
	}

	// Restore the snapshot off-node and explore it.
	var ex ExploreResult
	err = cl.Call(MethodExplore, &ExploreParams{
		Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true, EngineKnobs: EngineKnobs{MaxRuns: 1000},
	}, &ex)
	if err != nil {
		t.Fatal(err)
	}
	seed := ag.self.LastObserved("customer")
	if seed == nil {
		t.Fatal("no observed seed on the provider←customer peering")
	}
	res, err := core.ExploreSnapshot("provider", ag.self.Config(), ck.State, "customer",
		seed, core.Options{Engine: concolic.Options{MaxRuns: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Runs == 0 {
		t.Error("snapshot exploration ran nothing")
	}
}

// TestConnectValidation: the coordinator refuses mismatched topologies,
// doubled agents, and uncovered nodes.
func TestConnectValidation(t *testing.T) {
	topo := leakTopo3()
	agents := map[string]*Agent{}
	for _, n := range topo.Nodes {
		ag, err := NewAgent(topo, n.Name)
		if err != nil {
			t.Fatal(err)
		}
		agents[n.Name] = ag
	}

	// Missing agent for one node.
	_, err := Connect(topo, fedOpts(), []Dialer{
		Loopback{Agent: agents["customer"]}, Loopback{Agent: agents["provider"]},
	})
	if err == nil {
		t.Error("Connect accepted a topology with an uncovered node")
	}

	// Two agents claiming the same node.
	_, err = Connect(topo, fedOpts(), []Dialer{
		Loopback{Agent: agents["customer"]}, Loopback{Agent: agents["provider"]},
		Loopback{Agent: agents["upstream"]}, Loopback{Agent: agents["provider"]},
	})
	if err == nil {
		t.Error("Connect accepted two agents for one node")
	}

	// Agent administering a different topology.
	other := leakTopo3()
	other.Name = "some-other-fabric"
	otherAgent, err := NewAgent(other, "provider")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Connect(topo, fedOpts(), []Dialer{
		Loopback{Agent: agents["customer"]}, Loopback{Agent: otherAgent},
		Loopback{Agent: agents["upstream"]},
	})
	if err == nil {
		t.Error("Connect accepted an agent from a different topology")
	}

	// A malformed property fails Connect with the parser's line
	// diagnostics.
	bad := fedOpts()
	bad.Properties = []string{"property broken {\n kind 42;\n}"}
	_, err = Connect(topo, bad, []Dialer{
		Loopback{Agent: agents["customer"]}, Loopback{Agent: agents["provider"]},
		Loopback{Agent: agents["upstream"]},
	})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("Connect(malformed property) = %v, want a line-2 parse error", err)
	}

	// NewAgent for an unknown node fails up front.
	if _, err := NewAgent(topo, "nonesuch"); err == nil {
		t.Error("NewAgent accepted an unknown node")
	}
}

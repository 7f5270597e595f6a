package dist

import (
	"net"
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
	return fleetCoordinator(t, topo, opts, nil, copts...)
}

// fleetCoordinator is loopbackCoordinator with a seam for misbehaving
// connections: wrap (when non-nil) decorates each node's loopback dialer
// — with a fault plan, a method killer — before Connect sees it.
func fleetCoordinator(t *testing.T, topo *core.Topology, opts core.FederatedOptions, wrap func(node string, d Dialer) Dialer, copts ...ConnOption) *Coordinator {
	t.Helper()
	agents := make(map[string]*Agent, len(topo.Nodes))
	for _, n := range topo.Nodes {
		ag, err := NewAgent(topo, n.Name)
		if err != nil {
			t.Fatalf("agent %s: %v", n.Name, err)
		}
		agents[n.Name] = ag
	}
	return connectAgents(t, topo, agents, opts, wrap, copts...)
}

// connectAgents connects a coordinator to already built agents over the
// pipe transport, each node's dialer decorated by wrap when non-nil.
func connectAgents(t *testing.T, topo *core.Topology, agents map[string]*Agent, opts core.FederatedOptions, wrap func(node string, d Dialer) Dialer, copts ...ConnOption) *Coordinator {
	t.Helper()
	var dialers []Dialer
	for _, n := range topo.Nodes {
		var d Dialer = Loopback{Agent: agents[n.Name]}
		if wrap != nil {
			d = wrap(n.Name, d)
		}
		dialers = append(dialers, d)
	}
	c, err := Connect(topo, opts, dialers, copts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
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

// TestNewCoordinatorStartsCold: warm exploration state is the session's.
// Two ReuseState coordinators in turn over one set of agents: the second
// one's first round reports what the first one's did, where keeping the
// agents' warm state across sessions would have it skip every known path
// and report no finding. Its second round is warm again.
func TestNewCoordinatorStartsCold(t *testing.T) {
	topo := leakTopo3()
	opts := fedOpts()
	opts.ReuseState = true
	agents := map[string]*Agent{}
	for _, n := range topo.Nodes {
		ag, err := NewAgent(topo, n.Name)
		if err != nil {
			t.Fatal(err)
		}
		agents[n.Name] = ag
	}
	var first string
	for run := 0; run < 2; run++ {
		coord := connectAgents(t, topo, agents, opts, nil)
		cold, err := coord.Round()
		if err != nil {
			t.Fatal(err)
		}
		snap := strings.Join(cold.Snapshot(), "\n")
		if run == 0 {
			first = snap
			if len(cold.Violations) == 0 {
				t.Fatal("the first coordinator's round confirmed no violation")
			}
		} else if snap != first {
			t.Errorf("the second coordinator's first round:\n%s\nwant the first coordinator's:\n%s", snap, first)
		}
		warm, err := coord.Round()
		if err != nil {
			t.Fatal(err)
		}
		if ex := warm.Targets[0].Explore; ex.NewPaths != 0 || ex.SkippedNegations == 0 {
			t.Errorf("coordinator %d's second round: %d new paths, %d negations skipped; want a warm round", run+1, ex.NewPaths, ex.SkippedNegations)
		}
		coord.Close()
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

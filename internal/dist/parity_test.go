package dist

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"dice/internal/bgp"
	"dice/internal/core"
	"dice/internal/minimize"
	"dice/internal/netaddr"
	"dice/internal/prop"
	"dice/internal/trace"
)

// parityCase is one row of the backend-parity table: the same topology,
// options and preparation run once through the in-process
// core.FederatedExperiment and once through a distributed fleet, and the
// two rounds must render the same Snapshot(). What varies per row is the
// fleet — plain loopback agents, a replica pool, scheduled or random
// connection faults — never the expectation.
type parityCase struct {
	// test names the Test function that runs the row and name the subtest
	// under it ("" runs in the function itself). The entry points at the
	// bottom of this file keep the names CI history knows.
	test, name string

	// topo builds the topology; each backend gets its own instance.
	topo func(t *testing.T) *core.Topology
	opts core.FederatedOptions
	// distProps, when set, is a property set only the distributed side
	// declares (the in-process reference runs the built-in oracles).
	distProps []string
	// replay feeds examples/replay/trace.mrtl into both backends at
	// transitA←stub before the round.
	replay bool
	// refused, when set, is a witness whose injection crosses a link with
	// no session on it: before the round, both backends must fail to check
	// it with core.NoPeerError, and no agent may keep a shadow from the
	// attempt.
	refused *WitnessSpec

	// wrap decorates one node's loopback dialer (a fault plan); connOpts
	// builds the row's connection options (replica pool, retry policy).
	// Both nil is a fault-free loopback fleet.
	wrap     func(node string, d Dialer) Dialer
	connOpts func(t *testing.T) []ConnOption

	// nonVacuous fails the row when the in-process reference did not
	// exercise what the row is about; extra checks what a snapshot does
	// not carry (stats, health, per-finding artifacts).
	nonVacuous func(t *testing.T, inproc *core.FederatedResult)
	extra      func(t *testing.T, inproc *core.FederatedResult, dist *RoundResult)
}

// assertParity runs one row.
func assertParity(t *testing.T, pc parityCase) {
	t.Helper()
	fe, err := core.NewFederatedExperiment(pc.topo(t), pc.opts)
	if err != nil {
		t.Fatal(err)
	}
	distOpts := pc.opts
	if pc.distProps != nil {
		distOpts.Properties = pc.distProps
	}
	var copts []ConnOption
	if pc.connOpts != nil {
		copts = pc.connOpts(t)
	}
	coord := fleetCoordinator(t, pc.topo(t), distOpts, pc.wrap, copts...)
	if pc.replay {
		raw, err := os.ReadFile("../../examples/replay/trace.mrtl")
		if err != nil {
			t.Fatal(err)
		}
		records, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fe.Replay("transitA", "stub", records); err != nil {
			t.Fatal(err)
		}
		if n, err := coord.Replay("transitA", "stub", raw); err != nil {
			t.Fatal(err)
		} else if n != len(records) {
			t.Fatalf("coordinator replayed %d of %d records", n, len(records))
		}
	}
	if w := pc.refused; w != nil {
		want := core.NoPeerError(w.Node, w.Peer).Error()
		_, inErr := fe.CheckWitness(w.Node, w.Peer, w.Update)
		_, distErr := coord.CheckWitnesses([]WitnessSpec{*w})
		for backend, err := range map[string]error{"in-process": inErr, "distributed": distErr} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s check of a witness across an unpeered link: %v, want %q", backend, err, want)
			}
		}
		if n := agentShadows(coord); n != 0 {
			t.Errorf("%d agent shadows survived the refused check", n)
		}
	}
	inproc, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	if pc.nonVacuous != nil {
		pc.nonVacuous(t, inproc)
	}
	dist, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}
	want, got := strings.Join(inproc.Snapshot(), "\n"), strings.Join(dist.Snapshot(), "\n")
	if got != want {
		t.Errorf("snapshots differ:\n--- in-process ---\n%s\n--- distributed ---\n%s", want, got)
	}
	if len(dist.Targets) != len(inproc.Targets) {
		t.Fatalf("distributed round ran %d targets, in-process %d", len(dist.Targets), len(inproc.Targets))
	}
	if pc.extra != nil {
		pc.extra(t, inproc, dist)
	}
}

// agentShadows counts the shadow clones the coordinator's loopback agents
// hold open.
func agentShadows(c *Coordinator) int {
	n := 0
	for _, nc := range c.conns {
		if lb, ok := nc.dialer.(Loopback); ok {
			lb.Agent.mu.Lock()
			n += len(lb.Agent.shadows)
			lb.Agent.mu.Unlock()
		}
	}
	return n
}

// unpeeredTopo is leakTopo3 with a customer–upstream link neither config
// peers over, and unpeeredWitness a customer announcement injected at
// upstream across it.
func unpeeredTopo(*testing.T) *core.Topology {
	topo := leakTopo3()
	topo.Edges = append(topo.Edges, core.TopoEdge{A: "customer", B: "upstream"})
	return topo
}

var unpeeredWitness = WitnessSpec{Node: "upstream", Peer: "customer", Update: &bgp.Update{
	Attrs: bgp.Attrs{
		HasOrigin:  true,
		ASPath:     bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{65001}}},
		HasNextHop: true,
		NextHop:    netaddr.AddrFrom4(10, 0, 0, 1),
	},
	NLRI: []netaddr.Prefix{netaddr.MustParsePrefix("10.7.1.0/24")},
}}

// exampleRef names a committed example: its directory under examples/
// and the name its topo.json declares (subtests are named after it).
type exampleRef struct{ dir, topoName string }

var committedExamples = []exampleRef{{"federated", "federated-4as-chain"}, {"routeleak", "routeleak-3as"}}

func exampleTopo(dir string) func(*testing.T) *core.Topology {
	return func(t *testing.T) *core.Topology {
		t.Helper()
		topo, err := core.LoadTopology("../../examples/" + dir + "/topo.json")
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
}

func hasViolations(t *testing.T, inproc *core.FederatedResult) {
	t.Helper()
	if len(inproc.Violations) == 0 {
		t.Fatal("parity vacuous: the in-process round found no violations")
	}
}

// withChaosPolicy is the connection option every faulty row runs under.
func withChaosPolicy(*testing.T) []ConnOption {
	return []ConnOption{WithRetryPolicy(chaosPolicy())}
}

// chaosPlan gives every node's connection its seed-derived fault plan.
func chaosPlan(seed int64) func(string, Dialer) Dialer {
	return func(node string, d Dialer) Dialer {
		return &FaultDialer{Inner: d, Plan: RandomFaultPlan(seed, node, chaosDelay)}
	}
}

// faultAt arms one node's first connection with a single scheduled fault;
// failDialsFrom is FaultPlan.FailDialsFrom (-1 lets every redial through,
// 1 keeps the agent dead after its first connection).
func faultAt(node string, frame int, kind FaultKind, failDialsFrom int) func(string, Dialer) Dialer {
	return func(n string, d Dialer) Dialer {
		if n != node {
			return d
		}
		return &FaultDialer{Inner: d, Plan: &FaultPlan{
			Delay:         chaosDelay,
			Specs:         []FaultSpec{{Conn: 0, Frame: frame, Kind: kind}},
			FailDialsFrom: failDialsFrom,
		}}
	}
}

// agentsReportedRuns: the distributed round's exploration stats came from
// the agents, not from zero values.
func agentsReportedRuns(t *testing.T, inproc *core.FederatedResult, dist *RoundResult) {
	t.Helper()
	for i, dt := range dist.Targets {
		if it := inproc.Targets[i]; it.Err == nil && dt.Explore.Runs == 0 && it.Result.Report.Runs > 0 {
			t.Errorf("target %d: distributed agent reported 0 runs, in-process %d", i, it.Result.Report.Runs)
		}
	}
}

// someTargetSkipped: the ran/skipped split is exercised (the split itself
// is in the snapshot).
func someTargetSkipped(t *testing.T, _ *core.FederatedResult, dist *RoundResult) {
	t.Helper()
	for _, dt := range dist.Targets {
		if dt.Skipped != "" {
			return
		}
	}
	t.Error("expected at least one skipped defaulted target (no observed seed)")
}

// minimalWitnessPerFinding: the parity is per finding, not just per
// sorted snapshot — zip the targets and compare each finding's minimal
// witness and each target's reduction stats directly.
func minimalWitnessPerFinding(t *testing.T, inproc *core.FederatedResult, dist *RoundResult) {
	t.Helper()
	render := func(f core.Finding) string {
		if f.MinimalWitness == nil {
			return "<none>"
		}
		return minimize.Render(f.MinimalWitness)
	}
	minimized := 0
	for i, dt := range dist.Targets {
		it := inproc.Targets[i]
		if it.Err != nil || it.Result == nil {
			continue
		}
		for j, df := range dt.Findings {
			if dr, ir := render(df), render(it.Result.Findings[j]); dr != ir {
				t.Errorf("target %d finding %d (%s): distributed minimal %q, in-process %q", i, j, df.Prefix, dr, ir)
			}
			if df.MinimalWitness != nil {
				minimized++
			}
		}
		if (dt.Minimization == nil) != (it.Result.Minimization == nil) {
			t.Errorf("target %d: minimization stats presence differs", i)
		} else if dt.Minimization != nil && *dt.Minimization != *it.Result.Minimization {
			t.Errorf("target %d: minimization stats differ:\n distributed: %+v\n in-process:  %+v",
				i, dt.Minimization, it.Result.Minimization)
		}
	}
	if minimized == 0 {
		t.Error("distributed round carried no minimal witnesses")
	}
}

// replicaRow is a row whose exploration phase runs on a replica pool.
// The pool, not the agents, must have explored every non-skipped target —
// otherwise the parity is the fallback path shadowing a broken replica
// path — and no agent's health may be touched.
func replicaRow(example exampleRef, transport string, newPool func(*testing.T) *ReplicaPool) parityCase {
	var pool *ReplicaPool
	return parityCase{
		test: "TestReplicaRoundParity", name: example.topoName + "/v2-" + transport,
		topo: exampleTopo(example.dir), opts: fedOpts(),
		connOpts: func(t *testing.T) []ConnOption {
			pool = newPool(t)
			return []ConnOption{WithReplicas(pool)}
		},
		nonVacuous: hasViolations,
		extra: func(t *testing.T, _ *core.FederatedResult, dist *RoundResult) {
			ran := 0
			for _, tr := range dist.Targets {
				if tr.Skipped == "" {
					ran++
				}
			}
			if st := pool.Stats(); st.Completed != ran {
				t.Errorf("pool completed %d shards, want %d (one per explored target)", st.Completed, ran)
			}
			for n, h := range dist.Health {
				if h.State != HealthHealthy {
					t.Errorf("node %s ended %q, want healthy", n, h.State)
				}
			}
		},
	}
}

// parityTable is every backend-parity row.
func parityTable() []parityCase {
	federated := exampleTopo("federated")
	leak3 := func(*testing.T) *core.Topology { return leakTopo3() }
	atOpts := fedOpts()
	atOpts.Properties = atProps()
	rows := []parityCase{
		// The acceptance criterion: the committed federated example.
		{test: "TestDistributedParityFederatedExample", topo: federated, opts: fedOpts(),
			nonVacuous: hasViolations, extra: agentsReportedRuns},
		// No explore list: every edge in both directions, some directions
		// with no observed seed — same targets, same order, same split.
		{test: "TestDistributedParityDefaultTargets", opts: fedOpts(),
			topo: func(*testing.T) *core.Topology {
				topo := leakTopo3()
				topo.Explore = nil
				return topo
			},
			extra: someTargetSkipped},
		// Minimization: every candidate re-injected through shadow_open /
		// inject_witness / query_oracle settles on the same MinimalWitness.
		{test: "TestDistributedParityMinimization", topo: federated, opts: minimizeOpts(),
			nonVacuous: func(t *testing.T, inproc *core.FederatedResult) {
				if !strings.Contains(strings.Join(inproc.Snapshot(), "\n"), "\n    minimal ") {
					t.Fatal("parity vacuous: the in-process round minimized no witness")
				}
			},
			extra: minimalWitnessPerFinding},
		// Replay: the lines committed as examples/replay/findings.golden.
		{test: "TestDistributedReplayParity", topo: federated, opts: minimizeOpts(), replay: true},
		// A witness across a link whose configs do not peer fails the same
		// way on both backends, and the round beside it is unaffected.
		{test: "TestUnpeeredLinkParity", topo: unpeeredTopo, opts: fedOpts(), refused: &unpeeredWitness,
			nonVacuous: hasViolations},
		// A custom `at` property the agents answer over the wire
		// (query_oracle WantProps) — and it must actually fire.
		{test: "TestDistributedPropertyAtParity", topo: leak3, opts: atOpts,
			nonVacuous: func(t *testing.T, inproc *core.FederatedResult) {
				kinds := map[string]int{}
				for _, v := range inproc.Violations {
					kinds[v.Kind]++
				}
				if kinds["leak-tagged"] == 0 || kinds["avoid-upstream"] == 0 {
					t.Fatalf("custom properties never fired in-process; violations: %v", inproc.Violations)
				}
			}},
	}
	// On both committed examples: the bundled .prop re-expressions of the
	// built-in oracles, shipped in hello, against the hard-coded in-process
	// round; and exploration on a replica pool over both transports.
	for _, example := range committedExamples {
		rows = append(rows,
			parityCase{test: "TestDistributedPropertyGoldenParity", name: example.topoName + "/binary",
				topo: exampleTopo(example.dir), opts: fedOpts(), nonVacuous: hasViolations,
				distProps: []string{prop.BuiltinRouteLeakSource, prop.BuiltinStaleRouteSource}},
			replicaRow(example, "loopback", func(*testing.T) *ReplicaPool { return replicaPool(2) }),
			replicaRow(example, "tcp", func(t *testing.T) *ReplicaPool { return tcpReplicaPool(t, 2) }))
	}
	// Degraded fallback: provider's connection drops at every frame position
	// of its round — explore (2), shadow_open (3), the UPDATE and WITHDRAW
	// waves' inject_witness (4, 5), where shadow loss discards the merged
	// group and replays each witness alone — and every redial is refused,
	// so the node runs on an in-process replacement. Frame 6 is the answer
	// to shadow_close, which is best effort: a drop there costs nothing and
	// nobody notices within the round.
	for _, frame := range []int{2, 3, 4, 5, 6} {
		rows = append(rows, parityCase{test: "TestDegradedFallbackParity", name: fmt.Sprintf("drop-frame-%d", frame),
			topo: leak3, opts: fedOpts(), wrap: faultAt("provider", frame, FaultDrop, 1), connOpts: withChaosPolicy,
			extra: func(t *testing.T, _ *core.FederatedResult, dist *RoundResult) {
				for n, h := range dist.Health {
					want := HealthHealthy
					if n == "provider" && frame < 6 {
						want = HealthDegraded
					}
					if h.State != want {
						t.Errorf("%s ended %q, want %s: %+v", n, h.State, want, h)
					}
				}
			}})
	}
	// Chaos: every node's connection takes one seed-scheduled fault (drop /
	// delay / garble / mid-frame kill), with minimization and with the
	// replay → round → minimize pipeline of the regression harness.
	for _, seed := range chaosSeeds() {
		name := fmt.Sprintf("seed-%d", seed)
		rows = append(rows,
			parityCase{test: "TestChaosParityFederated", name: name, topo: federated, opts: minimizeOpts(),
				wrap: chaosPlan(seed), connOpts: withChaosPolicy,
				extra: func(t *testing.T, _ *core.FederatedResult, dist *RoundResult) {
					if totalFaults(dist.Health) == 0 {
						t.Error("chaos round observed no faults — plan never fired")
					}
				}},
			parityCase{test: "TestChaosParityReplay", name: name, topo: federated, opts: minimizeOpts(), replay: true,
				wrap: chaosPlan(seed), connOpts: withChaosPolicy})
	}
	return rows
}

// runParity runs the table rows that belong to the calling Test function.
func runParity(t *testing.T) {
	leakCheck(t)
	ran := 0
	for _, pc := range parityTable() {
		if pc.test != t.Name() {
			continue
		}
		ran++
		if pc.name == "" {
			assertParity(t, pc)
		} else {
			t.Run(pc.name, func(t *testing.T) { assertParity(t, pc) })
		}
	}
	if ran == 0 {
		t.Fatalf("no parity row names %s", t.Name())
	}
}

func TestDistributedParityFederatedExample(t *testing.T) { runParity(t) }
func TestDistributedParityDefaultTargets(t *testing.T)   { runParity(t) }
func TestDistributedParityMinimization(t *testing.T)     { runParity(t) }
func TestDistributedReplayParity(t *testing.T)           { runParity(t) }
func TestDistributedPropertyGoldenParity(t *testing.T)   { runParity(t) }
func TestDistributedPropertyAtParity(t *testing.T)       { runParity(t) }
func TestReplicaRoundParity(t *testing.T)                { runParity(t) }
func TestDegradedFallbackParity(t *testing.T)            { runParity(t) }
func TestChaosParityFederated(t *testing.T)              { runParity(t) }
func TestChaosParityReplay(t *testing.T)                 { runParity(t) }
func TestUnpeeredLinkParity(t *testing.T)                { runParity(t) }

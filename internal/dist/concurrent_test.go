package dist

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dice/internal/bgp"
	"dice/internal/core"
	"dice/internal/netaddr"
	"dice/internal/telemetry"
	"dice/internal/topo"
)

// roundView is what a round must reproduce whatever the number of witness
// groups in flight: the snapshot, the deliveries, the violation list and
// each target's minimization stats.
type roundView struct {
	snapshot     string
	steps        int
	violations   []core.FederatedViolation
	minimization []string
}

func inprocView(res *core.FederatedResult) roundView {
	v := roundView{snapshot: strings.Join(res.Snapshot(), "\n"), steps: res.PropagationSteps, violations: res.Violations}
	for _, tr := range res.Targets {
		if tr.Result != nil && tr.Result.Minimization != nil {
			v.minimization = append(v.minimization, fmt.Sprintf("%s/%s %+v", tr.Node, tr.Peer, *tr.Result.Minimization))
		}
	}
	return v
}

func distView(res *RoundResult) roundView {
	v := roundView{snapshot: strings.Join(res.Snapshot(), "\n"), steps: res.PropagationSteps, violations: res.Violations}
	for _, tr := range res.Targets {
		if tr.Minimization != nil {
			v.minimization = append(v.minimization, fmt.Sprintf("%s/%s %+v", tr.Node, tr.Peer, *tr.Minimization))
		}
	}
	return v
}

// rpcCounts reads the round's RPC calls per method off the client
// counters.
func rpcCounts(tm *Metrics) map[string]uint64 {
	got := map[string]uint64{}
	for _, m := range methodTable {
		if n := tm.rpcCalls.With(m.name).Value(); n != 0 {
			got[m.name] = n
		}
	}
	return got
}

// shadowsOpened sums the agents' dice_agent_shadows_opened_total.
func shadowsOpened(agents map[string]*Agent) uint64 {
	var n uint64
	for _, ag := range agents {
		n += ag.am.shadowsOpened.Value()
	}
	return n
}

// slowDropPolicy retries a dropped connection fast but leaves every call
// a generous deadline, so the only fault a row sees is the one it plans.
func slowDropPolicy() RetryPolicy {
	p := chaosPolicy()
	p.RPCTimeout = 30 * time.Second
	return p
}

// TestConcurrentGroupsParity: checking up to Workers disjoint-prefix
// groups at once moves nothing. At Workers 1, 2 and 4, on loopback agents
// and in process, a round over the 64-AS generated topology (12 groups)
// and over the committed federated example (minimized) renders the same
// snapshot, deliveries, violations and minimization stats, and spends the
// same RPCs per method. Both backends open a shadow on a set's first call
// to a node, so the round opens as many in process as the agents'
// dice_agent_shadows_opened_total adds up to, at every Workers. Wire bytes
// are deliberately not compared: keys are minted in scheduling order, and
// their uvarint widths vary by a few bytes per round.
//
// With groups in flight beside it, a connection drop mid-group on a busy
// agent whose redials are refused replaces the agent; every set it held
// is lost, each affected group falls back to solo replays, and the
// snapshot is still the same. The hard-error row is concurrentHardError.
func TestConcurrentGroupsParity(t *testing.T) {
	generated, _, err := topo.Generate(topo.Spec{Seed: 64, Nodes: 64, ExploreTargets: 12, PolicyClauses: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		topo     *core.Topology
		minimize bool
		// busy is an agent deep in the witness phase at its 40th inbound
		// frame (one explore, then well over a hundred relay frames); ""
		// skips the fault row.
		busy string
	}{
		{"asgen-64", generated, false, "as1008"},
		{"federated-example", exampleTopo("federated")(t), true, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakCheck(t)
			opts := fedOpts()
			opts.MaxWitnesses = 1 << 20
			opts.Minimize = tc.minimize
			// One shared fabric for every coordinator of the row, instead
			// of one fabric build per agent per coordinator.
			agents, err := NewSharedAgents(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			for _, ag := range agents {
				ag.EnableTelemetry(telemetry.NewRegistry())
			}
			var (
				want      roundView
				wantRPCs  map[string]uint64
				wantOpens int64
			)
			for _, workers := range []int{1, 2, 4} {
				opts.Workers = workers
				fe, err := core.NewFederatedExperiment(tc.topo, opts)
				if err != nil {
					t.Fatal(err)
				}
				inproc, err := fe.Round()
				if err != nil {
					t.Fatal(err)
				}
				tm := NewMetrics(telemetry.NewRegistry())
				opened := shadowsOpened(agents)
				dist, err := connectAgents(t, tc.topo, agents, opts, nil, WithTelemetry(tm)).Round()
				if err != nil {
					t.Fatal(err)
				}
				rpcs := rpcCounts(tm)
				opens := fe.ShadowsOpened()
				if agentOpens := int64(shadowsOpened(agents) - opened); agentOpens != opens {
					t.Errorf("workers %d: the agents opened %d shadows, the in-process round %d", workers, agentOpens, opens)
				}
				if workers == 1 {
					want, wantRPCs, wantOpens = inprocView(inproc), rpcs, opens
					if opens == 0 {
						t.Fatal("open parity vacuous: the round opened no shadow")
					}
					if len(want.violations) == 0 || (tc.minimize && len(want.minimization) == 0) {
						t.Fatalf("parity vacuous: %d violations, %d minimized targets", len(want.violations), len(want.minimization))
					}
				}
				for backend, got := range map[string]roundView{"in-process": inprocView(inproc), "loopback": distView(dist)} {
					if got.snapshot != want.snapshot {
						t.Errorf("workers %d, %s: snapshot differs from workers 1 in process:\n--- want ---\n%s\n--- got ---\n%s", workers, backend, want.snapshot, got.snapshot)
					}
					if got.steps != want.steps || !reflect.DeepEqual(got.violations, want.violations) || !reflect.DeepEqual(got.minimization, want.minimization) {
						t.Errorf("workers %d, %s: %d deliveries, %d violations, minimization %v; want %d, %d, %v",
							workers, backend, got.steps, len(got.violations), got.minimization, want.steps, len(want.violations), want.minimization)
					}
				}
				if !reflect.DeepEqual(rpcs, wantRPCs) {
					t.Errorf("workers %d: RPCs per method %v, workers 1 spent %v", workers, rpcs, wantRPCs)
				}
				if opens != wantOpens {
					t.Errorf("workers %d: %d shadows opened in process, workers 1 opened %d", workers, opens, wantOpens)
				}
				if tc.busy == "" || workers == 1 {
					continue
				}

				tm = NewMetrics(telemetry.NewRegistry())
				res, err := connectAgents(t, tc.topo, agents, opts, faultAt(tc.busy, 40, FaultDrop, 1),
					WithRetryPolicy(slowDropPolicy()), WithTelemetry(tm)).Round()
				if err != nil {
					t.Fatal(err)
				}
				if got := distView(res); got.snapshot != want.snapshot {
					t.Errorf("workers %d, %s dropped mid-group: snapshot differs:\n--- want ---\n%s\n--- got ---\n%s", workers, tc.busy, want.snapshot, got.snapshot)
				}
				if h := res.Health[tc.busy]; h.State != HealthDegraded {
					t.Errorf("workers %d: %s ended %q, want degraded", workers, tc.busy, h.State)
				}
				if closes := tm.rpcCalls.With(MethodShadowClose).Value(); closes <= wantRPCs[MethodShadowClose] {
					t.Errorf("workers %d: %d shadow_close calls, fault-free %d: no lost group replayed its members alone", workers, closes, wantRPCs[MethodShadowClose])
				}
			}
		})
	}
	t.Run("hard-error", concurrentHardError)
}

// TestCappedRoundParity: a round with more validated witnesses than the
// per-round cap checks the first MaxWitnesses of them, so which witnesses
// (and which of their violations) make the round is decided by the order
// findings come in. That order is canonical: on the 64-AS topology with
// six policy clauses per customer filter (well over the default cap of
// 16 witnesses), round after round, Workers 1 and 4 render one snapshot
// in process and over loopback agents.
func TestCappedRoundParity(t *testing.T) {
	generated, _, err := topo.Generate(topo.Spec{Seed: 64, Nodes: 64, ExploreTargets: 12, PolicyClauses: 6})
	if err != nil {
		t.Fatal(err)
	}
	leakCheck(t)
	agents, err := NewSharedAgents(generated)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, workers := range []int{1, 4} {
		opts := fedOpts()
		opts.Workers = workers
		fe, err := core.NewFederatedExperiment(generated, opts)
		if err != nil {
			t.Fatal(err)
		}
		c := connectAgents(t, generated, agents, opts, nil)
		for round := 1; round <= 3; round++ {
			inproc, err := fe.Round()
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Round()
			if err != nil {
				t.Fatal(err)
			}
			if want == "" {
				if inproc.WitnessesSkipped == 0 {
					t.Fatalf("parity vacuous: %d witnesses injected, none skipped by the cap", inproc.WitnessesInjected)
				}
				want = strings.Join(inproc.Snapshot(), "\n")
			}
			for backend, got := range map[string][]string{"in-process": inproc.Snapshot(), "loopback": res.Snapshot()} {
				if s := strings.Join(got, "\n"); s != want {
					t.Errorf("workers %d, round %d, %s: snapshot differs from workers 1 in process:\n--- want ---\n%s\n--- got ---\n%s", workers, round, backend, want, s)
				}
			}
		}
	}
}

// concurrentHardError: a group that fails hard (a witness across
// a link no session runs on) stops dispatch, and the error returned is the
// lowest-index failed group's even when a later group fails first: group 1
// here (a witness from a node with no link) fails before any RPC, group 0
// only on its agent's answer. At Workers 1 nothing past group 0 opens a
// set. On every backend and worker count no agent keeps a shadow and no
// goroutine outlives the test.
func concurrentHardError(t *testing.T) {
	leakCheck(t)
	noLink := WitnessSpec{Node: "upstream", Peer: "nonesuch", Update: &bgp.Update{
		Attrs: unpeeredWitness.Update.Attrs,
		NLRI:  []netaddr.Prefix{netaddr.MustParsePrefix("10.7.0.0/16")}, // overlaps group 0
	}}
	want := core.NoPeerError(unpeeredWitness.Node, unpeeredWitness.Peer).Error()
	for _, workers := range []int{1, 2, 4} {
		opts := fedOpts()
		opts.Workers = workers
		tm := NewMetrics(telemetry.NewRegistry())
		c := loopbackCoordinator(t, unpeeredTopo(t), opts, WithTelemetry(tm))
		res, err := c.Round()
		if err != nil {
			t.Fatal(err)
		}
		specs := append([]WitnessSpec{unpeeredWitness, noLink}, roundWitnesses(res)...)
		fe, err := core.NewFederatedExperiment(unpeeredTopo(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.NewDriver(unpeeredTopo(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		closes := tm.rpcCalls.With(MethodShadowClose).Value()
		_, distErr := c.CheckWitnesses(specs)
		_, inErr := d.CheckWitnesses(fe, specs)
		for backend, err := range map[string]error{"in-process": inErr, "loopback": distErr} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("workers %d, %s: %v, want group 0's %q", workers, backend, err, want)
			}
		}
		if n := agentShadows(c); n != 0 {
			t.Errorf("workers %d: %d agent shadows survived the failed check", workers, n)
		}
		// Group 0's set called the agents its first step addressed — its
		// members' injection nodes — and closes exactly those.
		called := map[string]bool{}
		for _, w := range disjointGroups(specs)[0] {
			called[w.Node] = true
		}
		if closed := tm.rpcCalls.With(MethodShadowClose).Value() - closes; workers == 1 && closed != uint64(len(called)) {
			t.Errorf("workers 1: %d shadow_close calls after the failure, want group 0's set's %d", closed, len(called))
		}
	}
}

// TestRelayDepthSumsConcurrentSets: two shadow sets stepping interleaved
// each add their own queue depth to the relay-depth gauge, and a set
// whose waves end takes back only what it added, so the gauge reads the
// sum over the sets still relaying.
func TestRelayDepthSumsConcurrentSets(t *testing.T) {
	tm := NewMetrics(telemetry.NewRegistry())
	c := &Coordinator{metrics: tm}
	a, b := &shadowSet{c: c}, &shadowSet{c: c}
	for i, st := range []struct {
		set   *shadowSet
		depth int
		want  float64
	}{
		{a, 5, 5}, {b, 3, 8}, {a, 2, 5}, {b, 7, 9}, {a, 0, 7}, {b, 4, 4}, {b, 0, 0},
	} {
		st.set.setDepth(st.depth)
		if got := tm.relayDepth.Value(); got != st.want {
			t.Errorf("step %d: gauge %v, want %v", i, got, st.want)
		}
	}
}

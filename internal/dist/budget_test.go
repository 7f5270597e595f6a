package dist

import (
	"fmt"
	"reflect"
	"testing"

	"dice/internal/core"
	"dice/internal/telemetry"
	"dice/internal/topo"
)

// budgetTopos are the fleets the RPC budgets are held on: the committed
// federated example, the 5-AS diamond whose sink is addressed twice in one
// relay step, and a 16-AS generated draw with real fan-out.
func budgetTopos(t *testing.T) []namedTopo {
	t.Helper()
	example, err := core.LoadTopology("../../examples/federated/topo.json")
	if err != nil {
		t.Fatal(err)
	}
	generated, _, err := topo.Generate(topo.Spec{Seed: 16, Nodes: 16, ExploreTargets: 4, PolicyClauses: 1})
	if err != nil {
		t.Fatal(err)
	}
	return []namedTopo{{"federated-example", example}, {"diamond-5as", diamondTopo()}, {"asgen-16", generated}}
}

type namedTopo struct {
	name string
	topo *core.Topology
}

// roundWitnesses lists a finished round's injected witnesses in injection
// order.
func roundWitnesses(res *RoundResult) []WitnessSpec {
	var specs []WitnessSpec
	for _, tr := range res.Targets {
		for _, f := range tr.Findings {
			if f.Witness != nil {
				specs = append(specs, WitnessSpec{Node: tr.Node, Peer: tr.Peer, Update: f.Witness})
			}
		}
	}
	return specs
}

// TestQueryOracleBudget pins the "waves report what they changed"
// contract of witness fact collection: a witness lifecycle polls nobody
// around its waves, so the only query_oracle calls left are a forward
// trace walking into a node the UPDATE wave never touched — at most the
// sending peer and one more, 2 per witness. The count is read off
// dice_rpc_client_calls_total, the same series an operator scrapes.
// Forward traces used to re-ask every hop; the test demands a witness
// whose traces span more than two hops in total, so that regression
// cannot hide inside the 2.
func TestQueryOracleBudget(t *testing.T) {
	for _, tc := range budgetTopos(t) {
		t.Run(tc.name+"/v2-binary", func(t *testing.T) {
			leakCheck(t)
			tm := NewMetrics(telemetry.NewRegistry())
			c := loopbackCoordinator(t, tc.topo, fedOpts(), WithTelemetry(tm))
			res, err := c.Round()
			if err != nil {
				t.Fatal(err)
			}
			queries := tm.rpcCalls.With(MethodQueryOracle)
			deepest := 0
			specs := roundWitnesses(res)
			for _, w := range specs {
				shadows, err := c.OpenShadows()
				if err != nil {
					t.Fatal(err)
				}
				before := queries.Value()
				facts, err := c.driver.CollectFacts(c, shadows, []WitnessSpec{w})
				got := queries.Value() - before
				shadows.Close()
				if err != nil {
					t.Fatal(err)
				}
				if got > 2 {
					t.Errorf("witness %s at %s←%s: %d query_oracle calls, budget 2 (%d installed nodes)",
						w.Update.NLRI[0], w.Node, w.Peer, got, len(facts[0].Nodes))
				}
				visited := 0
				for _, n := range facts[0].Nodes {
					visited += len(n.Path)
				}
				deepest = max(deepest, visited)
			}
			if len(specs) == 0 || deepest <= 2 {
				t.Fatalf("budget vacuous: %d witnesses, deepest trace set visits %d nodes", len(specs), deepest)
			}
		})
	}
}

// witnessSlots replays one witness lifecycle alone on the reference model
// (netsimWaves) and returns the (phase, virtual time since the
// phase's injection, destination) slot of every delivery — the reference
// the relay's call count is held against.
func witnessSlots(t *testing.T, base modelFabric, w WitnessSpec) (slots map[string]bool, deliveries int) {
	t.Helper()
	ref, _ := netsimWaves(t, base, w, 0)
	slots = map[string]bool{}
	for _, d := range ref {
		slots[fmt.Sprintf("%d %v %s", d.phase, d.at, d.to)] = true
	}
	return slots, len(ref)
}

// TestInjectBudget pins the relay's call discipline. Per round,
// inject_witness calls never exceed the distinct (virtual time,
// destination) slots of the round's witnesses — one call per agent per
// relay step, however many deliveries and however many witnesses of the
// group share the slot — and every call belongs to a step: the step-width
// histogram's sum is the call count. A delivery-at-a-time relay spends
// one call per delivery and fails the first clause wherever two
// deliveries share a slot, which the test demands happens.
//
// On the committed federated example the round's RPC count per method is
// pinned as a table. The counts repeat exactly — exploration exhausts its
// frontier, the relay is deterministic — so a regression in how often the
// coordinator talks fails here instead of surfacing only in benchmark/.
func TestInjectBudget(t *testing.T) {
	rpcTable := map[string]uint64{
		MethodExplore:       2,
		MethodShadowOpen:    4,
		MethodInjectWitness: 6,
		MethodShadowClose:   4,
		MethodQueryOracle:   2,
	}
	for _, tc := range budgetTopos(t) {
		t.Run(tc.name+"/v2-binary", func(t *testing.T) {
			leakCheck(t)
			tm := NewMetrics(telemetry.NewRegistry())
			c := loopbackCoordinator(t, tc.topo, fedOpts(), WithTelemetry(tm))
			res, err := c.Round()
			if err != nil {
				t.Fatal(err)
			}
			slots, deliveries := 0, 0
			base := newModelFabric(t, tc.topo)
			for _, w := range roundWitnesses(res) {
				s, n := witnessSlots(t, base, w)
				slots += len(s)
				deliveries += n
			}
			if deliveries != res.PropagationSteps {
				t.Fatalf("reference replay made %d deliveries, the round %d", deliveries, res.PropagationSteps)
			}
			calls := tm.rpcCalls.With(MethodInjectWitness).Value()
			if calls > uint64(slots) {
				t.Errorf("%d inject_witness calls for %d (time, destination) slots (%d deliveries)", calls, slots, deliveries)
			}
			if width := tm.relayStepWidth.Sum(); float64(calls) != width || tm.relayStepWidth.Count() != tm.relaySteps.Value() {
				t.Errorf("%d calls, but %d steps addressed %v agents in total: a step issues one call per agent",
					calls, tm.relaySteps.Value(), width)
			}
			if tc.name != "federated-example" {
				if slots >= deliveries || tm.witnessBatches.Value() == 0 {
					t.Errorf("budget vacuous: %d slots for %d deliveries, %d multi-delivery calls", slots, deliveries, tm.witnessBatches.Value())
				}
				return
			}
			got := map[string]uint64{}
			for _, m := range methodTable {
				if n := tm.rpcCalls.With(m.name).Value(); n != 0 {
					got[m.name] = n
				}
			}
			if !reflect.DeepEqual(got, rpcTable) {
				t.Errorf("RPCs per round by method:\n got %v\nwant %v", got, rpcTable)
			}
		})
	}
}

package dist

import (
	"testing"

	"dice/internal/core"
	"dice/internal/telemetry"
)

// TestQueryOracleBudget pins the "ask each agent once" contract of
// witness fact collection: a witness lifecycle issues at most one
// query_oracle per agent per phase — the pre fan-out, the post fan-out
// and the after-withdraw fan-out — plus one each for the explored node
// and the sending peer, which the fan-outs skip and a forward trace may
// reach. The count is read off dice_rpc_client_calls_total, the same
// series an operator scrapes. Forward traces used to re-ask every hop;
// the test demands a witness whose traces span more than two hops in
// total, so that regression cannot hide inside the +2.
func TestQueryOracleBudget(t *testing.T) {
	example, err := core.LoadTopology("../../examples/federated/topo.json")
	if err != nil {
		t.Fatal(err)
	}
	topos := []struct {
		name string
		topo *core.Topology
	}{{"federated-example", example}, {"diamond-5as", diamondTopo()}}
	for _, tc := range topos {
		t.Run(tc.name+"/v2-binary", func(t *testing.T) {
			leakCheck(t)
			tm := NewMetrics(telemetry.NewRegistry())
			c := loopbackCoordinator(t, tc.topo, fedOpts(), WithTelemetry(tm))
			res, err := c.Round()
			if err != nil {
				t.Fatal(err)
			}
			queries := tm.rpcCalls.With(MethodQueryOracle)
			others := uint64(len(c.nodes) - 2)
			witnesses, deepest := 0, 0
			for _, tr := range res.Targets {
				for _, f := range tr.Findings {
					if f.Witness == nil {
						continue
					}
					witnesses++
					shadows, err := c.OpenShadows()
					if err != nil {
						t.Fatal(err)
					}
					before := queries.Value()
					facts, err := c.driver.CollectFacts(c, shadows, WitnessSpec{Node: tr.Node, Peer: tr.Peer, Update: f.Witness})
					got := queries.Value() - before
					shadows.Close()
					if err != nil {
						t.Fatal(err)
					}
					// |pre| + |post| + |after| + the two skipped nodes.
					budget := others + others + uint64(len(facts.Nodes)) + 2
					if got > budget {
						t.Errorf("witness %s at %s←%s: %d query_oracle calls, budget %d (%d installed nodes)",
							f.Witness.NLRI[0], tr.Node, tr.Peer, got, budget, len(facts.Nodes))
					}
					visited := 0
					for _, n := range facts.Nodes {
						visited += len(n.Path)
					}
					deepest = max(deepest, visited)
				}
			}
			if witnesses == 0 || deepest <= 2 {
				t.Fatalf("budget vacuous: %d witnesses, deepest trace set visits %d nodes", witnesses, deepest)
			}
		})
	}
}

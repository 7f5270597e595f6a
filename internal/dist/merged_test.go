package dist

import (
	"reflect"
	"testing"

	"dice/internal/core"
	"dice/internal/prop"
)

// waveFacts is what a witness lifecycle observed, less what is identical
// by construction (the witness itself, the AS resolver).
type waveFacts struct {
	Update, Withdraw prop.Phase
	Nodes            []prop.NodeFacts
	Stale            []string
}

func factsOf(f *prop.Facts) waveFacts {
	return waveFacts{Update: f.Update, Withdraw: f.Withdraw, Nodes: f.Nodes, Stale: f.Stale}
}

// disjointGroups splits witnesses first-fit into groups of pairwise
// disjoint prefixes, as Driver.CheckWitnesses does.
func disjointGroups(specs []WitnessSpec) [][]WitnessSpec {
	var groups [][]WitnessSpec
next:
	for _, w := range specs {
		for i, g := range groups {
			fits := true
			for _, m := range g {
				for _, p := range m.Update.NLRI {
					for _, q := range w.Update.NLRI {
						fits = fits && !p.Overlaps(q)
					}
				}
			}
			if fits {
				groups[i] = append(g, w)
				continue next
			}
		}
		groups = append(groups, []WitnessSpec{w})
	}
	return groups
}

// TestMergedWaveParity: one merged lifecycle per disjoint-prefix group
// observes, member by member, exactly what solo lifecycles on fresh
// shadow sets observe — steps, pending, per-timestamp wave counts,
// installed nodes with hops, paths and `at` verdicts, stale nodes — over
// loopback agents, where the members' deliveries really interleave in the
// relay, and in process. An `at` property is declared so the waves carry
// verdicts.
func TestMergedWaveParity(t *testing.T) {
	opts := fedOpts()
	opts.Properties = atProps()[:1]
	opts.MaxWitnesses = 1 << 20
	for _, tc := range budgetTopos(t) {
		t.Run(tc.name, func(t *testing.T) {
			leakCheck(t)
			merged := 0
			c := loopbackCoordinator(t, tc.topo, opts)
			res, err := c.Round()
			if err != nil {
				t.Fatal(err)
			}
			fe, err := core.NewFederatedExperiment(tc.topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			backends := []struct {
				name  string
				fleet core.Fleet
			}{{"loopback", c}, {"in-process", fe}}
			for _, group := range disjointGroups(roundWitnesses(res)) {
				if len(group) > 1 {
					merged++
				}
				for _, b := range backends {
					collect := func(ws []WitnessSpec) []*prop.Facts {
						sh := b.fleet.OpenShadows()
						defer sh.Close()
						facts, err := c.driver.CollectFacts(b.fleet, sh, ws)
						if err != nil {
							t.Fatal(err)
						}
						return facts
					}
					together := collect(group)
					for i, w := range group {
						alone := collect([]WitnessSpec{w})[0]
						if got, want := factsOf(together[i]), factsOf(alone); !reflect.DeepEqual(got, want) {
							t.Errorf("%s: witness %s at %s←%s, member %d of %d:\n merged %+v\n  alone %+v",
								b.name, w.Update.NLRI[0], w.Node, w.Peer, i+1, len(group), got, want)
						}
						if len(alone.Nodes) > 0 && alone.Nodes[0].AtMatch == nil {
							t.Errorf("%s: witness %s installed at %s without `at` verdicts", b.name, w.Update.NLRI[0], alone.Nodes[0].Name)
						}
					}
				}
			}
			if merged == 0 {
				t.Fatal("parity vacuous: no group had two members")
			}
		})
	}
}

package core_test

import (
	"strings"
	"testing"

	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/netaddr"
	"dice/internal/topo"
)

// TestRoundEqualsPerWitnessChecks: Round checks disjoint-prefix witnesses
// a group at a time — one shadow set, one merged lifecycle per group —
// while the exported CheckWitness checks one witness on a fresh shadow.
// Recomposing a round from per-witness checks must reproduce Round's
// snapshot exactly, on rounds that really do merge (two witnesses with
// disjoint prefixes) and really do split (two whose prefixes overlap).
func TestRoundEqualsPerWitnessChecks(t *testing.T) {
	example, err := core.LoadTopology("../../examples/federated/topo.json")
	if err != nil {
		t.Fatal(err)
	}
	generated, _, err := topo.Generate(topo.Spec{Seed: 64, Nodes: 64, ExploreTargets: 12, PolicyClauses: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*core.Topology{example, generated} {
		t.Run(tp.Name, func(t *testing.T) {
			fe, err := core.NewFederatedExperiment(tp, core.FederatedOptions{
				Engine: concolic.Options{MaxRuns: 1000}, Workers: 2, MaxWitnesses: 1 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := fe.Round()
			if err != nil {
				t.Fatal(err)
			}
			if res.WitnessesInjected < 2 {
				t.Fatalf("vacuous: %d witnesses injected", res.WitnessesInjected)
			}
			again := &core.FederatedResult{Targets: res.Targets}
			var prefixes []netaddr.Prefix
			for _, tr := range res.Targets {
				if tr.Result == nil {
					continue
				}
				for _, f := range tr.Result.Findings {
					if f.Witness == nil {
						continue
					}
					out, err := fe.CheckWitness(tr.Node, tr.Peer, f.Witness)
					if err != nil {
						t.Fatal(err)
					}
					prefixes = append(prefixes, f.Witness.NLRI[0])
					again.WitnessesInjected++
					again.PropagationSteps += out.Steps
					again.Violations = append(again.Violations, out.Violations...)
				}
			}
			merges, splits := false, false
			for i, p := range prefixes {
				for _, q := range prefixes[:i] {
					merges = merges || !p.Overlaps(q)
					splits = splits || p.Overlaps(q)
				}
			}
			if !merges || (tp == generated && !splits) {
				t.Fatalf("vacuous: witness prefixes %v never share a group, or all share one", prefixes)
			}
			want, got := strings.Join(res.Snapshot(), "\n"), strings.Join(again.Snapshot(), "\n")
			if want != got {
				t.Errorf("round and per-witness recomposition disagree:\n--- round ---\n%s\n--- recomposed ---\n%s", want, got)
			}
		})
	}
}

// BenchmarkWitnessWave is one round's witness checking on its own: a
// 64-AS generated topology, its round's witnesses collected once, then
// one CheckWitnesses over them per iteration — the shadow delivery path
// (netsim → session → codec → router pipeline → RIB overlay) with
// allocations reported.
func BenchmarkWitnessWave(b *testing.B) {
	d, fe, specs := witnessWave(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.CheckWitnesses(fe, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// witnessWaveAllocs bounds what BenchmarkWitnessWave's op allocates: a
// wave allocates the routes, emissions and facts it keeps (28 566 objects
// when the bound was set) and 10 % of headroom.
const witnessWaveAllocs = 31_400

// TestWitnessWaveAllocBudget holds the witness checks of a 64-AS round,
// at Workers 1, to witnessWaveAllocs.
func TestWitnessWaveAllocBudget(t *testing.T) {
	d, fe, specs := witnessWave(t)
	got := testing.AllocsPerRun(3, func() {
		if _, err := d.CheckWitnesses(fe, specs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per round's witness checks", got)
	if got > witnessWaveAllocs {
		t.Errorf("a round's witness checks allocate %.0f objects, budget %d", got, witnessWaveAllocs)
	}
}

// witnessWave runs one round of the 64-AS generated topology at Workers 1
// and returns its driver, fleet and confirmed witnesses.
func witnessWave(tb testing.TB) (*core.Driver, *core.FederatedExperiment, []core.WitnessSpec) {
	tb.Helper()
	tp, _, err := topo.Generate(topo.Spec{Seed: 64, Nodes: 64, ExploreTargets: 12, PolicyClauses: 1})
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.FederatedOptions{Engine: concolic.Options{MaxRuns: 1000}, Workers: 1, MaxWitnesses: 1 << 20}
	fe, err := core.NewFederatedExperiment(tp, opts)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := core.NewDriver(tp, opts)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := fe.Round()
	if err != nil {
		tb.Fatal(err)
	}
	var specs []core.WitnessSpec
	for _, tr := range res.Targets {
		if tr.Result == nil {
			continue
		}
		for _, f := range tr.Result.Findings {
			if f.Witness != nil {
				specs = append(specs, core.WitnessSpec{Node: tr.Node, Peer: tr.Peer, Update: f.Witness})
			}
		}
	}
	if len(specs) == 0 {
		tb.Fatal("the round confirmed no witness to check")
	}
	return d, fe, specs
}

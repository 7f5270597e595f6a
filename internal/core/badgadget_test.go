package core

import (
	"strings"
	"testing"

	"dice/internal/concolic"
	"dice/internal/prop"
)

// The examples/badgadget fixture is Griffin's BAD GADGET dispute wheel:
// three routers around a hub, each steering local_pref by path shape so
// it prefers the route THROUGH its clockwise neighbor exactly when that
// neighbor uses its own direct route (bgp_path.len = 3 on {17,32}
// more-specifics). No stable routing exists for such a configuration,
// so once a more-specific witness enters the wheel the shadow fabric
// churns forever — the persistent-oscillation oracle must fire because
// the system genuinely diverges, not because a step bound was tuned
// down. The initial /16 convergence is untouched (the steering clause
// gates on more-specific prefixes), so the fixture builds and explores
// normally.

// TestBadGadgetOscillation: a federated round over the fixture topology
// confirms persistent oscillation at a generous propagation bound.
func TestBadGadgetOscillation(t *testing.T) {
	topo, err := LoadTopology("../../examples/badgadget/topo.json")
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFederatedExperiment(topo, FederatedOptions{
		Engine:  concolic.Options{MaxRuns: 1000},
		Workers: 2,
		// A bound ~5x the default: divergence must survive it. A fixture
		// that only "oscillates" against a tight bound would converge
		// somewhere in here and the assertion below would catch it.
		MaxPropagationSteps: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 1 || res.Targets[0].Err != nil {
		t.Fatalf("targets: %+v", res.Targets)
	}
	if len(res.Targets[0].Result.Findings) == 0 {
		t.Fatal("exploration found no leak witnesses to inject")
	}
	if res.WitnessesInjected == 0 {
		t.Fatal("no witnesses injected")
	}

	osc := 0
	for _, v := range res.Violations {
		if v.Kind == "persistent-oscillation" {
			osc++
			if v.Node != "hub" || v.Peer != "stub" {
				t.Errorf("oscillation attributed to %s/%s, want hub/stub: %s", v.Node, v.Peer, v)
			}

			// Per-wave delivery telemetry: genuine divergence shows a
			// SUSTAINED tail — the final waves keep delivering at a
			// steady clip right up to the bound. A decaying tail would
			// mean the wheel was converging (slowly) when the bound hit,
			// i.e. a tuned-down bound masquerading as divergence.
			if v.Waves == 0 {
				t.Errorf("oscillation carries no wave count: %s", v)
			}
			if len(v.WaveTail) != prop.WaveTailLen {
				t.Fatalf("wave tail has %d entries, want %d: %v", len(v.WaveTail), prop.WaveTailLen, v.WaveTail)
			}
			for i, n := range v.WaveTail {
				if n == 0 {
					t.Errorf("wave tail entry %d is empty — deliveries decayed, system was converging: %v", i, v.WaveTail)
				}
			}
			// The wheel's churn is periodic: the tail repeats one steady
			// per-wave delivery count, it does not taper. The final wave
			// may be truncated mid-flight by the step bound itself, so it
			// only has to stay within the steady rate, not match it.
			steady := v.WaveTail[0]
			for _, n := range v.WaveTail[1 : len(v.WaveTail)-1] {
				if n != steady {
					t.Errorf("wave tail not steady-state: %v", v.WaveTail)
				}
			}
			if last := v.WaveTail[len(v.WaveTail)-1]; last > steady {
				t.Errorf("truncated final wave exceeds the steady rate: %v", v.WaveTail)
			}
			if !strings.Contains(v.Detail(), "waves, tail deliveries") {
				t.Errorf("oscillation detail does not surface the wave telemetry: %s", v.Detail())
			}
		}
	}
	if osc == 0 {
		t.Fatalf("dispute wheel produced no persistent-oscillation at a 20000-step bound; violations: %v", res.Violations)
	}
}

// TestBadGadgetConvergesWithoutSteering: the same topology with the
// steering clauses removed must converge — proving the oscillation
// comes from the dispute wheel's preferences, not from the shape of the
// fabric or the witness itself.
func TestBadGadgetConvergesWithoutSteering(t *testing.T) {
	topo, err := LoadTopology("../../examples/badgadget/topo.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := range topo.Nodes {
		cfg := topo.Nodes[i].Config
		out := cfg[:0]
		for _, line := range cfg {
			if line == "    if net ~ 10.96.0.0/11{17,32} && bgp_path.len = 3 then set local_pref 200;" {
				continue // drop the dispute-wheel preference
			}
			out = append(out, line)
		}
		topo.Nodes[i].Config = out
	}
	fe, err := NewFederatedExperiment(topo, FederatedOptions{
		Engine:  concolic.Options{MaxRuns: 1000},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		if v.Kind == "persistent-oscillation" {
			t.Errorf("steering-free wheel still oscillates: %s", v)
		}
	}
}

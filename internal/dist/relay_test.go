package dist

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dice/internal/bgp"
	"dice/internal/core"
	"dice/internal/netaddr"
	"dice/internal/prop"
	"dice/internal/topo"
)

// waveDelivery is one delivery of a witness lifecycle.
type waveDelivery struct {
	phase int           // 0 the UPDATE wave, 1 the WITHDRAW wave
	at    time.Duration // virtual time since the phase's injection
	to    string
	msg   string // the delivered bytes
}

func (d waveDelivery) String() string {
	return fmt.Sprintf("phase %d +%v →%s %x", d.phase, d.at, d.to, d.msg)
}

// lifecycle is what a witness check injects: the witness, then its
// withdrawal.
func lifecycle(w WitnessSpec) [2]*bgp.Update {
	return [2]*bgp.Update{w.Update, {Withdrawn: []netaddr.Prefix{w.Update.NLRI[0]}}}
}

// netsimWaves is the reference the relay is held to: one witness
// lifecycle alone on a fresh live fabric, each phase sent by the peer's
// session and stepped through netsim until nothing is in flight (or
// maxSteps deliveries, when positive). It returns every delivery in order
// and each phase's telemetry in the relay's terms.
func netsimWaves(t *testing.T, tp *core.Topology, w WitnessSpec, maxSteps int) ([]waveDelivery, [2]prop.Phase) {
	t.Helper()
	f, err := tp.Build()
	if err != nil {
		t.Fatal(err)
	}
	var (
		out    []waveDelivery
		phases [2]prop.Phase
	)
	for phase, u := range lifecycle(w) {
		start := f.Net.Now()
		if err := f.Routers[w.Peer].Session(w.Node).SendUpdate(u); err != nil {
			t.Fatal(err)
		}
		ph := &phases[phase]
		for maxSteps <= 0 || ph.Steps < maxSteps {
			e, ok := f.Net.Next()
			if !ok {
				break
			}
			f.Net.Step()
			at := f.Net.Now().Sub(start)
			if len(out) == 0 || out[len(out)-1].phase != phase || out[len(out)-1].at != at {
				ph.Waves = append(ph.Waves, 0)
			}
			ph.Waves[len(ph.Waves)-1]++
			ph.Steps++
			out = append(out, waveDelivery{phase, at, e.To, string(e.Data)})
		}
		ph.Pending = f.Net.Pending()
	}
	return out, phases
}

// relayWaves runs the same lifecycle alone through a core.Relay over a
// fresh shadow of live, recording every delivery the relay hands its
// step.
func relayWaves(t *testing.T, d *core.Driver, live *core.Fabric, w WitnessSpec, maxSteps int) ([]waveDelivery, [2]prop.Phase) {
	t.Helper()
	sh, err := live.Shadow()
	if err != nil {
		t.Fatal(err)
	}
	var (
		out    []waveDelivery
		phases [2]prop.Phase
	)
	relay := d.NewRelay()
	for phase, u := range lifecycle(w) {
		in := []core.Injection{{From: w.Peer, To: w.Node, Update: u, Watch: w.Update.NLRI[0]}}
		waves, err := relay.Run(in, maxSteps, func(step []core.Delivery, depth int, emit func(*core.Delivery, string, []byte)) error {
			for _, d := range step {
				out = append(out, waveDelivery{phase, d.At, d.To, string(d.Data)})
			}
			return sh.Deliver(step, depth, emit)
		})
		if err != nil {
			t.Fatal(err)
		}
		phases[phase] = waves[0].Phase
	}
	return out, phases
}

// TestRelayMatchesNetsim pins the one wave scheduler to netsim: every
// witness of a 64-AS generated round and of the committed federated
// example, run alone through the relay, makes exactly the deliveries
// netsim makes on a live fabric — same phase, virtual time, destination
// and bytes, in the same order — and reports the same prop.Phase. Shadows
// never run on netsim, so this is what holds the relay to netsim's
// (time, FIFO) order.
func TestRelayMatchesNetsim(t *testing.T) {
	generated, _, err := topo.Generate(topo.Spec{Seed: 64, Nodes: 64, ExploreTargets: 12, PolicyClauses: 1})
	if err != nil {
		t.Fatal(err)
	}
	example, err := core.LoadTopology("../../examples/federated/topo.json")
	if err != nil {
		t.Fatal(err)
	}
	opts := fedOpts()
	opts.MaxWitnesses = 1 << 20
	for _, tc := range []namedTopo{{"asgen-64", generated}, {"federated-example", example}} {
		t.Run(tc.name, func(t *testing.T) {
			fe, err := core.NewFederatedExperiment(tc.topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.NewDriver(tc.topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fe.Round()
			if err != nil {
				t.Fatal(err)
			}
			witnesses := 0
			for _, tr := range res.Targets {
				if tr.Result == nil {
					continue
				}
				for _, f := range tr.Result.Findings {
					if f.Witness == nil {
						continue
					}
					witnesses++
					w := WitnessSpec{Node: tr.Node, Peer: tr.Peer, Update: f.Witness}
					maxSteps := d.Opts.MaxPropagationSteps
					want, wantPhases := netsimWaves(t, tc.topo, w, maxSteps)
					got, gotPhases := relayWaves(t, d, fe.Fabric, w, maxSteps)
					if n := min(len(got), len(want)); !reflect.DeepEqual(got, want) {
						i := 0
						for i < n && got[i] == want[i] {
							i++
						}
						t.Fatalf("witness %s at %s←%s: relay made %d deliveries, netsim %d; first difference at %d:\n relay  %v\n netsim %v",
							w.Update.NLRI[0], w.Node, w.Peer, len(got), len(want), i, at(got, i), at(want, i))
					}
					if !reflect.DeepEqual(gotPhases, wantPhases) {
						t.Fatalf("witness %s at %s←%s: relay phases %+v, netsim %+v", w.Update.NLRI[0], w.Node, w.Peer, gotPhases, wantPhases)
					}
				}
			}
			if witnesses == 0 {
				t.Fatal("reference vacuous: the round confirmed no witness")
			}
		})
	}
}

// at is ds[i], or the zero delivery past its end.
func at(ds []waveDelivery, i int) waveDelivery {
	if i < len(ds) {
		return ds[i]
	}
	return waveDelivery{}
}

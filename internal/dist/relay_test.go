package dist

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dice/internal/bgp"
	"dice/internal/config"
	"dice/internal/core"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/netsim/netsimtest"
	"dice/internal/prop"
	"dice/internal/router"
	"dice/internal/topo"
	"dice/internal/trace"
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

// epoch is the clock Topology.Build starts a fabric's network at.
var epoch = time.Unix(1_300_000_000, 0)

// fabricNet is what a fabric needs of its network: the live
// netsim.Network and the reference model both are one.
type fabricNet interface {
	netsim.Transport
	AddNode(name string, r netsim.Receiver) error
	Connect(a, b string, latency time.Duration) error
	Now() time.Time
	Run(limit int) int
}

// delivery is one message a fabric's network delivered.
type delivery struct {
	at  time.Duration // since epoch
	to  string
	msg string // the delivered bytes
}

// fabricOn instantiates tp on net as Topology.Build does — nodes, links
// and start order are Build's — and converges it. Every delivery is
// appended to log.
func fabricOn(t *testing.T, tp *core.Topology, net fabricNet, log *[]delivery) map[string]*router.Router {
	t.Helper()
	routers := make(map[string]*router.Router, len(tp.Nodes))
	for _, n := range tp.Nodes {
		cfg, err := config.Parse(strings.Join(n.Config, "\n"))
		if err != nil {
			t.Fatal(err)
		}
		r := router.New(n.Name, cfg, net)
		net.AddNode(n.Name, netsim.ReceiverFunc(func(now time.Time, from string, data []byte) {
			*log = append(*log, delivery{now.Sub(epoch), r.Name(), string(data)})
			r.Deliver(now, from, data)
		}))
		routers[n.Name] = r
	}
	if err := tp.Link(net); err != nil {
		t.Fatal(err)
	}
	for _, n := range tp.Nodes {
		if err := routers[n.Name].Start(net.Now()); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(0)
	return routers
}

// modelFabric is a topology converged on the reference model, which
// every witness lifecycle starts from a copy of.
type modelFabric struct {
	topo    *core.Topology
	routers map[string]*router.Router
	now     time.Time
}

func newModelFabric(t *testing.T, tp *core.Topology) modelFabric {
	t.Helper()
	m := netsimtest.New(epoch)
	routers := fabricOn(t, tp, m, new([]delivery))
	return modelFabric{tp, routers, m.Now()}
}

// netsimWaves is the reference the relay is held to: one witness
// lifecycle alone on a copy of base over a fresh one-at-a-time model,
// each phase sent by the peer's session and stepped until nothing is in
// flight (or maxSteps deliveries, when positive). It returns every
// delivery in order and each phase's telemetry in the relay's terms.
func netsimWaves(t *testing.T, base modelFabric, w WitnessSpec, maxSteps int) ([]waveDelivery, [2]prop.Phase) {
	t.Helper()
	m := netsimtest.New(base.now)
	routers := make(map[string]*router.Router, len(base.routers))
	for name, r := range base.routers {
		routers[name] = r.CloneCOW(m)
		m.AddNode(name, routers[name])
	}
	if err := base.topo.Link(m); err != nil {
		t.Fatal(err)
	}
	var (
		out    []waveDelivery
		phases [2]prop.Phase
	)
	for phase, u := range lifecycle(w) {
		start := m.Now()
		if err := routers[w.Peer].Session(w.Node).SendUpdate(u); err != nil {
			t.Fatal(err)
		}
		ph := &phases[phase]
		for maxSteps <= 0 || ph.Steps < maxSteps {
			e, ok := m.Next()
			if !ok {
				break
			}
			m.Step()
			at := m.Now().Sub(start)
			if len(out) == 0 || out[len(out)-1].phase != phase || out[len(out)-1].at != at {
				ph.Waves = append(ph.Waves, 0)
			}
			ph.Waves[len(ph.Waves)-1]++
			ph.Steps++
			out = append(out, waveDelivery{phase, at, e.To, string(e.Data)})
		}
		ph.Pending = m.Pending()
	}
	return out, phases
}

// relayWaves runs the same lifecycle alone through a core.Relay over a
// fresh in-process shadow set of fe, recording every delivery the relay
// hands its step.
func relayWaves(t *testing.T, d *core.Driver, fe *core.FederatedExperiment, w WitnessSpec, maxSteps int) ([]waveDelivery, [2]prop.Phase) {
	t.Helper()
	sh := fe.OpenShadows().(*core.FabricShadows)
	defer sh.Close()
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
			return sh.Step(step, depth, emit)
		})
		if err != nil {
			t.Fatal(err)
		}
		phases[phase] = waves[0].Phase
	}
	return out, phases
}

// TestRelayMatchesNetsim pins netsim's one event loop to the
// one-at-a-time reference model (netsimtest), for both of its users.
// Shadow waves: every witness of a 64-AS generated round and of the
// committed federated example, run alone through the relay, makes exactly
// the deliveries the model makes on a copy of the topology it converged —
// same phase, virtual time, destination and bytes, in the same order —
// and reports the same prop.Phase. Live fabrics: building both topologies on the
// Network and on the model, and replaying examples/replay through the
// federated example's first explore target, make the same deliveries and
// leave every router with the same RIB, which is also Build's and
// ReplayTrace's.
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
			base := newModelFabric(t, tc.topo)
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
					want, wantPhases := netsimWaves(t, base, w, maxSteps)
					got, gotPhases := relayWaves(t, d, fe, w, maxSteps)
					if i, differ := firstDifference(got, want); differ {
						t.Fatalf("witness %s at %s←%s: relay made %d deliveries, the model %d; first difference at %d:\n relay %v\n model %v",
							w.Update.NLRI[0], w.Node, w.Peer, len(got), len(want), i, at(got, i), at(want, i))
					}
					if !reflect.DeepEqual(gotPhases, wantPhases) {
						t.Fatalf("witness %s at %s←%s: relay phases %+v, the model's %+v", w.Update.NLRI[0], w.Node, w.Peer, gotPhases, wantPhases)
					}
				}
			}
			if witnesses == 0 {
				t.Fatal("reference vacuous: the round confirmed no witness")
			}
		})
		t.Run("build/"+tc.name, func(t *testing.T) {
			var got, want []delivery
			live := fabricOn(t, tc.topo, netsim.New(epoch), &got)
			model := fabricOn(t, tc.topo, netsimtest.New(epoch), &want)
			built, err := tc.topo.Build()
			if err != nil {
				t.Fatal(err)
			}
			sameFabric(t, got, want, live, model, built.Routers)
		})
	}
	t.Run("replay/federated-example", func(t *testing.T) {
		raw, err := os.ReadFile("../../examples/replay/trace.mrtl")
		if err != nil {
			t.Fatal(err)
		}
		records, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		ingress := example.ResolveTargets(opts.DefaultScenario)[0]
		var got, want []delivery
		net := netsim.New(epoch)
		live := &core.Fabric{Topo: example, Net: net, Routers: fabricOn(t, example, net, &got)}
		if _, err := live.ReplayTrace(ingress.Node, ingress.Peer, records); err != nil {
			t.Fatal(err)
		}
		// The model replays by hand what ReplayTrace documents: the dump
		// through the peer's session, drained every 1 024 records and at
		// its end, then each update at its offset, then the tail.
		m := netsimtest.New(epoch)
		model := fabricOn(t, example, m, &want)
		sess := model[ingress.Peer].Session(ingress.Node)
		dump, updates := trace.Split(records)
		for i, rec := range dump {
			sess.SendUpdate(trace.ToUpdate(rec))
			if (i+1)%1024 == 0 {
				m.Run(0)
			}
		}
		m.Run(0)
		start := m.Now()
		for _, rec := range updates {
			m.RunUntil(start.Add(rec.At))
			sess.SendUpdate(trace.ToUpdate(rec))
		}
		m.Run(0)
		built, err := example.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := built.ReplayTrace(ingress.Node, ingress.Peer, records); err != nil {
			t.Fatal(err)
		}
		if len(updates) == 0 || len(dump) == 0 {
			t.Fatalf("reference vacuous: %d dump records, %d updates", len(dump), len(updates))
		}
		sameFabric(t, got, want, live.Routers, model, built.Routers)
	})
}

// sameFabric fails unless the live loop made the model's deliveries and
// the live, model and built fabrics' routers hold the same RIBs.
func sameFabric(t *testing.T, got, want []delivery, live, model, built map[string]*router.Router) {
	t.Helper()
	if i, differ := firstDifference(got, want); differ {
		t.Fatalf("the loop made %d deliveries, the model %d; first difference at %d:\n loop  %v\n model %v",
			len(got), len(want), i, at(got, i), at(want, i))
	}
	for name, r := range model {
		dump := fmt.Sprint(r.RIB().Dump())
		if l := fmt.Sprint(live[name].RIB().Dump()); l != dump {
			t.Fatalf("%s: the loop's RIB\n%s\nthe model's\n%s", name, l, dump)
		}
		if b := fmt.Sprint(built[name].RIB().Dump()); b != dump {
			t.Fatalf("%s: the built fabric's RIB\n%s\nthe model's\n%s", name, b, dump)
		}
	}
}

// firstDifference is the index where got and want first differ, and
// whether they do.
func firstDifference[T comparable](got, want []T) (int, bool) {
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	return i, i < max(len(got), len(want))
}

// at is ds[i], or the zero value past its end.
func at[T any](ds []T, i int) T {
	var zero T
	if i < len(ds) {
		return ds[i]
	}
	return zero
}

package dist

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/netaddr"
	"dice/internal/telemetry"
)

// countingConn tallies every byte crossing the wire (both directions,
// counted once on the coordinator side).
type countingConn struct {
	io.ReadWriteCloser
	bytes *int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	atomic.AddInt64(c.bytes, int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	atomic.AddInt64(c.bytes, int64(n))
	return n, err
}

// countingDialer wraps a Dialer so every connection it produces feeds
// the shared byte counter.
type countingDialer struct {
	inner Dialer
	bytes *int64
}

func (d countingDialer) Dial() (io.ReadWriteCloser, error) {
	conn, err := d.inner.Dial()
	if err != nil {
		return nil, err
	}
	return countingConn{ReadWriteCloser: conn, bytes: d.bytes}, nil
}

// benchWitnessSpecs handcrafts k concrete leak witnesses with pairwise
// disjoint prefixes: 10.200.k.0/24 passes the builtin peer_in filter's
// 10.0.0.0/8{24,32} clause, and the NO_EXPORT community arms the
// route-leak oracle on every node it escapes to. All inject at as65002
// as if sent by as65001 — the witness-storm shape a dense exploration
// round produces.
func benchWitnessSpecs(tb testing.TB, k int) []WitnessSpec {
	tb.Helper()
	specs := make([]WitnessSpec, k)
	for i := range specs {
		p, err := netaddr.ParsePrefix(fmt.Sprintf("10.200.%d.0/24", i))
		if err != nil {
			tb.Fatal(err)
		}
		specs[i] = WitnessSpec{
			Node: "as65002", Peer: "as65001",
			Update: &bgp.Update{
				Attrs: bgp.Attrs{
					HasOrigin:   true,
					ASPath:      bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{65001}}},
					HasNextHop:  true,
					NextHop:     netaddr.AddrFrom4(10, 0, 0, 1),
					Communities: []uint32{bgp.CommunityNoExport},
				},
				NLRI: []netaddr.Prefix{p},
			},
		}
	}
	return specs
}

// wireStorm connects a coordinator to one loopback agent per node of
// topo, every connection counting its bytes into wireBytes, and returns
// it with BenchmarkWireRound's 16-witness storm, checked once: the
// witnesses must actually propagate and leak, or the storm measures
// nothing. Fabric build and convergence are setup.
func wireStorm(tb testing.TB, topo *core.Topology, wireBytes *int64) (*Coordinator, []WitnessSpec) {
	tb.Helper()
	dialers := make([]Dialer, 0, len(topo.Nodes))
	for _, n := range topo.Nodes {
		ag, err := NewAgent(topo, n.Name)
		if err != nil {
			tb.Fatal(err)
		}
		dialers = append(dialers, countingDialer{inner: Loopback{Agent: ag}, bytes: wireBytes})
	}
	coord, err := Connect(topo, core.FederatedOptions{}, dialers)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { coord.Close() })
	specs := benchWitnessSpecs(tb, 16)
	outs, err := coord.CheckWitnesses(specs[:1])
	if err != nil {
		tb.Fatal(err)
	}
	if outs[0].Steps < 2 || len(outs[0].Violations) == 0 {
		tb.Fatalf("bench witness inert: %d steps, %d violations", outs[0].Steps, len(outs[0].Violations))
	}
	return coord, specs
}

// BenchmarkWireRound measures the wire-dominated phase of a distributed
// round — a 16-witness cross-domain check storm — over loopback agents.
// Exploration is excluded on purpose: it would only dilute the transport
// signal. wire-B/op reports bytes on the wire per checked storm.
func BenchmarkWireRound(b *testing.B) {
	shapes := []struct {
		name string
		topo *core.Topology
	}{
		{"line-3-dense", core.DenseLineTopology(3, 256)},
		{"mesh-5", core.MeshTopology(5)},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			var wireBytes int64
			coord, specs := wireStorm(b, sh.topo, &wireBytes)
			violations := 0
			b.ReportAllocs()
			b.ResetTimer()
			atomic.StoreInt64(&wireBytes, 0)
			for i := 0; i < b.N; i++ {
				outs, err := coord.CheckWitnesses(specs)
				if err != nil {
					b.Fatal(err)
				}
				violations = 0
				for _, out := range outs {
					violations += len(out.Violations)
				}
			}
			b.ReportMetric(float64(atomic.LoadInt64(&wireBytes))/float64(b.N), "wire-B/op")
			b.ReportMetric(float64(violations), "violations")
		})
	}
}

// wireRoundAllocs bounds what BenchmarkWireRound/mesh-5's op allocates,
// both ends of the wire together: the steady-state RPC allocates only
// what its caller keeps (5 347 objects when the bound was set, against
// 9 482 with a fresh buffer per frame and a copy per message and name)
// and 10 % of headroom.
const wireRoundAllocs = 5_880

// TestWireRoundAllocBudget holds BenchmarkWireRound/mesh-5's storm to
// wireRoundAllocs. Under the race detector the pool drops a share of
// its buffers (raceEnabled), so there the storm runs unmeasured.
func TestWireRoundAllocBudget(t *testing.T) {
	var wireBytes int64
	coord, specs := wireStorm(t, core.MeshTopology(5), &wireBytes)
	got := testing.AllocsPerRun(5, func() {
		if _, err := coord.CheckWitnesses(specs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per storm", got)
	if got > wireRoundAllocs && !raceEnabled {
		t.Errorf("a mesh-5 witness storm allocates %.0f objects, budget %d", got, wireRoundAllocs)
	}
}

// BenchmarkTelemetryOverhead measures full instrumentation — RPC
// metrics, per-call spans, agent-side counters, concolic round metrics —
// against the nil no-op path on a complete line-3-dense federated
// round. The PR 9 acceptance is instrumented within 5% of noop; the
// mechanism is that every telemetry hook starts with a nil-receiver
// check, so the noop leg never takes a timestamp or touches an atomic.
func BenchmarkTelemetryOverhead(b *testing.B) {
	topo := core.DenseLineTopology(3, 256)
	for _, mode := range []struct {
		name         string
		instrumented bool
	}{
		{"noop", false},
		{"instrumented", true},
	} {
		b.Run("line-3-dense/"+mode.name, func(b *testing.B) {
			var copts []ConnOption
			var reg *telemetry.Registry
			if mode.instrumented {
				reg = telemetry.NewRegistry()
				copts = append(copts, WithTelemetry(NewMetrics(reg)), WithTracer(telemetry.NewTracer()))
			}
			// Fresh agents per mode: reused exploration state would hand
			// whichever mode runs second a cheaper round.
			dialers := make([]Dialer, 0, len(topo.Nodes))
			for _, n := range topo.Nodes {
				ag, err := NewAgent(topo, n.Name)
				if err != nil {
					b.Fatal(err)
				}
				if mode.instrumented {
					ag.EnableTelemetry(reg)
				}
				dialers = append(dialers, Loopback{Agent: ag})
			}
			coord, err := Connect(topo, core.FederatedOptions{
				Engine:  concolic.Options{MaxRuns: 400},
				Workers: 2,
			}, dialers, copts...)
			if err != nil {
				b.Fatal(err)
			}
			defer coord.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Round(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

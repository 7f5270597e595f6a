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
		// Fabric build and convergence are setup.
		agents := make([]*Agent, 0, len(sh.topo.Nodes))
		for _, n := range sh.topo.Nodes {
			ag, err := NewAgent(sh.topo, n.Name)
			if err != nil {
				b.Fatal(err)
			}
			agents = append(agents, ag)
		}
		specs := benchWitnessSpecs(b, 16)
		b.Run(sh.name, func(b *testing.B) {
			var wireBytes int64
			dialers := make([]Dialer, len(agents))
			for i, ag := range agents {
				dialers[i] = countingDialer{inner: Loopback{Agent: ag}, bytes: &wireBytes}
			}
			coord, err := Connect(sh.topo, core.FederatedOptions{}, dialers)
			if err != nil {
				b.Fatal(err)
			}
			defer coord.Close()
			// Sanity: the witnesses must actually propagate and leak,
			// or the storm measures nothing.
			outs, err := coord.CheckWitnesses(specs[:1])
			if err != nil {
				b.Fatal(err)
			}
			if outs[0].Steps < 2 || len(outs[0].Violations) == 0 {
				b.Fatalf("bench witness inert: %d steps, %d violations", outs[0].Steps, len(outs[0].Violations))
			}
			violations := 0
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

package router

import (
	"testing"

	"dice/internal/bgp"
	"dice/internal/config"
	"dice/internal/netaddr"
	"dice/internal/netsim"
)

// dropSends is a transport that discards what it is handed.
type dropSends struct{}

func (dropSends) Send(string, string, []byte) {}

// loadedRouter builds a router with two Established peers and loads n
// /24s from each through Deliver, the live pipeline: every prefix holds
// two candidates.
func loadedRouter(t testing.TB, n int) *Router {
	t.Helper()
	cfg, err := config.Parse(`
		router id 10.0.0.100; local as 65000;
		peer a { remote 10.0.0.1 as 65001; }
		peer b { remote 10.0.0.2 as 65002; }`)
	if err != nil {
		t.Fatal(err)
	}
	r := New("hub", cfg, dropSends{})
	for _, peer := range []struct {
		name    string
		nextHop string
		path    []uint16
	}{{"a", "10.0.0.1", []uint16{65001}}, {"b", "10.0.0.2", []uint16{65002, 65010}}} {
		r.Session(peer.name).RestoreEstablished(0, 0)
		u := bgp.Update{Attrs: parityAttrs(peer.nextHop, 0, nil, peer.path...)}
		for i := 0; i < n; {
			u.NLRI = u.NLRI[:0]
			for ; i < n && len(u.NLRI) < 500; i++ {
				u.NLRI = append(u.NLRI, netaddr.PrefixFrom(netaddr.Addr(0x0A000000+uint32(i)<<8), 24))
			}
			wire, err := bgp.Encode(&u)
			if err != nil {
				t.Fatal(err)
			}
			r.Deliver(parityNow, peer.name, wire)
		}
	}
	if got := r.RIB().Routes(); got != 2*n {
		t.Fatalf("loaded %d routes, want %d", got, 2*n)
	}
	return r
}

// TestCheckpointCloneAllocs: taking a checkpoint (Router.Clone) costs the
// same number of allocations at 1k and 20k prefixes, and twenty at most:
// the RIB's Clone shares the trie's root, never copying a node or a route.
func TestCheckpointCloneAllocs(t *testing.T) {
	const bound = 20
	allocs := func(n int) float64 {
		r := loadedRouter(t, n)
		var c *Router
		got := testing.AllocsPerRun(5, func() { c = r.Clone(netsim.NewCaptureSink()) })
		if c.RIB().Routes() != r.RIB().Routes() || c.RIB().Prefixes() != n {
			t.Fatalf("the clone holds %d routes over %d prefixes, want %d over %d", c.RIB().Routes(), c.RIB().Prefixes(), r.RIB().Routes(), n)
		}
		return got
	}
	small, large := allocs(1000), allocs(20000)
	t.Logf("Router.Clone allocations: %v at 1k prefixes, %v at 20k", small, large)
	if small != large || large > bound {
		t.Fatalf("Router.Clone allocates %v objects at 1k prefixes and %v at 20k, want the same and ≤ %d", small, large, bound)
	}
}

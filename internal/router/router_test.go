package router

import (
	"bytes"
	"testing"
	"time"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/config"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/rib"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }
func ip(s string) netaddr.Addr    { return netaddr.MustParseAddr(s) }

// testNet is a small harness: routers attached to a netsim network.
type testNet struct {
	net     *netsim.Network
	routers map[string]*Router
}

func newTestNet(t testing.TB, configs map[string]string, links [][2]string) *testNet {
	t.Helper()
	tn := &testNet{
		net:     netsim.New(time.Unix(1e9, 0)),
		routers: map[string]*Router{},
	}
	for name, src := range configs {
		cfg, err := config.Parse(src)
		if err != nil {
			t.Fatalf("config %s: %v", name, err)
		}
		r := New(name, cfg, tn.net)
		tn.routers[name] = r
		if err := tn.net.AddNode(name, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range links {
		if err := tn.net.Connect(l[0], l[1], time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range tn.routers {
		if err := r.Start(tn.net.Now()); err != nil {
			t.Fatal(err)
		}
	}
	tn.net.Run(0)
	return tn
}

// twoRouterConfigs builds a simple A(65001) -- B(65002) pair.
func twoRouterConfigs() map[string]string {
	return map[string]string{
		"a": `
			router id 10.0.0.1; local as 65001;
			network 10.1.0.0/16;
			peer b { remote 10.0.0.2 as 65002; }`,
		"b": `
			router id 10.0.0.2; local as 65002;
			peer a { remote 10.0.0.1 as 65001; }`,
	}
}

func TestSessionsEstablish(t *testing.T) {
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	for name, r := range tn.routers {
		for peer := range r.peers {
			if st := r.Session(peer).State(); st != bgp.StateEstablished {
				t.Fatalf("%s->%s state %v", name, peer, st)
			}
		}
	}
}

func TestNetworkAnnouncement(t *testing.T) {
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	// b must have learned a's network with a's AS prepended.
	rt := tn.routers["b"].RIB().Best(pfx("10.1.0.0/16"))
	if rt == nil {
		t.Fatal("b did not learn 10.1.0.0/16")
	}
	if rt.Attrs.ASPath.String() != "65001" {
		t.Fatalf("as path: %s", rt.Attrs.ASPath)
	}
	if rt.OriginAS() != 65001 {
		t.Fatalf("origin AS: %d", rt.OriginAS())
	}
	if rt.Attrs.NextHop != ip("10.0.0.1") {
		t.Fatalf("next hop: %v", rt.Attrs.NextHop)
	}
	if rt.Attrs.HasLocalPref {
		t.Fatal("LOCAL_PREF must not cross eBGP")
	}
}

func TestUpdatePropagationChain(t *testing.T) {
	// a -- b -- c: c must learn a's route with path "65002 65001".
	configs := map[string]string{
		"a": `router id 10.0.0.1; local as 65001; network 10.1.0.0/16;
			peer b { remote 10.0.0.2 as 65002; }`,
		"b": `router id 10.0.0.2; local as 65002;
			peer a { remote 10.0.0.1 as 65001; }
			peer c { remote 10.0.0.3 as 65003; }`,
		"c": `router id 10.0.0.3; local as 65003;
			peer b { remote 10.0.0.2 as 65002; }`,
	}
	tn := newTestNet(t, configs, [][2]string{{"a", "b"}, {"b", "c"}})
	rt := tn.routers["c"].RIB().Best(pfx("10.1.0.0/16"))
	if rt == nil {
		t.Fatal("c did not learn the route")
	}
	if rt.Attrs.ASPath.String() != "65002 65001" {
		t.Fatalf("as path at c: %s", rt.Attrs.ASPath)
	}
}

func TestLoopPrevention(t *testing.T) {
	// Triangle a-b-c, all different ASes; routes must not loop.
	configs := map[string]string{
		"a": `router id 10.0.0.1; local as 65001; network 10.1.0.0/16;
			peer b { remote 10.0.0.2 as 65002; }
			peer c { remote 10.0.0.3 as 65003; }`,
		"b": `router id 10.0.0.2; local as 65002;
			peer a { remote 10.0.0.1 as 65001; }
			peer c { remote 10.0.0.3 as 65003; }`,
		"c": `router id 10.0.0.3; local as 65003;
			peer a { remote 10.0.0.1 as 65001; }
			peer b { remote 10.0.0.2 as 65002; }`,
	}
	tn := newTestNet(t, configs, [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}})
	// a must never install a route to its own prefix via b or c.
	rt := tn.routers["a"].RIB().Best(pfx("10.1.0.0/16"))
	if rt == nil || !rt.Local {
		t.Fatalf("a's own network hijacked internally: %v", rt)
	}
	// b and c both have the route.
	if tn.routers["b"].RIB().Best(pfx("10.1.0.0/16")) == nil ||
		tn.routers["c"].RIB().Best(pfx("10.1.0.0/16")) == nil {
		t.Fatal("propagation incomplete")
	}
}

func TestImportFilterRejects(t *testing.T) {
	configs := map[string]string{
		"a": `router id 10.0.0.1; local as 65001;
			network 10.1.0.0/16;
			network 192.168.7.0/24;
			peer b { remote 10.0.0.2 as 65002; }`,
		"b": `router id 10.0.0.2; local as 65002;
			filter no_private {
				if net ~ 192.168.0.0/16 then reject;
				accept;
			}
			peer a { remote 10.0.0.1 as 65001; import filter no_private; }`,
	}
	tn := newTestNet(t, configs, [][2]string{{"a", "b"}})
	b := tn.routers["b"]
	if b.RIB().Best(pfx("10.1.0.0/16")) == nil {
		t.Fatal("allowed route missing")
	}
	if b.RIB().Best(pfx("192.168.7.0/24")) != nil {
		t.Fatal("filtered route installed")
	}
	if c := b.Counters(); c.RoutesRejected == 0 || c.RoutesAccepted == 0 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestWithdrawPropagates(t *testing.T) {
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	a, b := tn.routers["a"], tn.routers["b"]
	if b.RIB().Best(pfx("10.1.0.0/16")) == nil {
		t.Fatal("setup: route missing")
	}
	// a withdraws its network by sending an explicit withdraw via peer
	// session (simulate by delivering an UPDATE from a's session).
	sess := a.Session("b")
	if err := sess.SendUpdate(&bgp.Update{Withdrawn: []netaddr.Prefix{pfx("10.1.0.0/16")}}); err != nil {
		t.Fatal(err)
	}
	tn.net.Run(0)
	if b.RIB().Best(pfx("10.1.0.0/16")) != nil {
		t.Fatal("withdraw not processed")
	}
}

func TestLastObservedRetained(t *testing.T) {
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	u := tn.routers["b"].LastObserved("a")
	if u == nil || len(u.NLRI) != 1 || u.NLRI[0] != pfx("10.1.0.0/16") {
		t.Fatalf("last observed: %+v", u)
	}
}

func TestEncodeStateDeterministic(t *testing.T) {
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	b := tn.routers["b"]
	s1 := bytes.Join(b.EncodeStateChunks(), nil)
	s2 := bytes.Join(b.EncodeStateChunks(), nil)
	if string(s1) != string(s2) {
		t.Fatal("EncodeStateChunks must be deterministic")
	}
	if len(s1) < 16 {
		t.Fatal("state suspiciously small")
	}
}

func TestCloneIsolation(t *testing.T) {
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	b := tn.routers["b"]
	sink := netsim.NewCaptureSink()
	clone := b.Clone(sink)

	// The clone sees the same RIB...
	if clone.RIB().Best(pfx("10.1.0.0/16")) == nil {
		t.Fatal("clone missing parent route")
	}
	// ...but mutations do not leak back.
	clone.RIB().Insert(testRoute("203.0.113.0/24"))
	if b.RIB().Best(pfx("203.0.113.0/24")) != nil {
		t.Fatal("clone mutation leaked to parent")
	}
	// Clone sessions look established.
	if clone.Session("a").State() != bgp.StateEstablished {
		t.Fatal("clone session not established")
	}
	// Clone output goes to the sink, not the network.
	before := tn.net.Pending()
	err := clone.Session("a").SendUpdate(&bgp.Update{Withdrawn: []netaddr.Prefix{pfx("10.1.0.0/16")}})
	if err != nil {
		t.Fatal(err)
	}
	if tn.net.Pending() != before {
		t.Fatal("clone message reached the live network")
	}
	if sink.Count() != 1 {
		t.Fatalf("sink count = %d", sink.Count())
	}
}

// testRoute builds a throwaway route value.
func testRoute(p string) *rib.Route {
	return &rib.Route{
		Prefix: pfx(p),
		Attrs: bgp.Attrs{
			HasOrigin: true, Origin: bgp.OriginIGP,
			ASPath:     bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{65009}}},
			HasNextHop: true, NextHop: ip("10.9.9.9"),
		},
		PeerRouterID: ip("10.9.9.9"),
		PeerAS:       65009,
		EBGP:         true,
	}
}

func TestConcolicHandlerExploresFilter(t *testing.T) {
	// Provider with a customer filter that has a hole: it accepts any
	// /25-or-longer prefix regardless of ownership.
	configs := map[string]string{
		"provider": `
			router id 10.0.0.2; local as 65002;
			filter customer_in {
				if net ~ 10.7.0.0/16 then accept;
				if net.len >= 25 then accept;
				reject;
			}
			peer customer { remote 10.0.0.1 as 65001; import filter customer_in; }`,
		"customer": `
			router id 10.0.0.1; local as 65001;
			network 10.7.0.0/16;
			peer provider { remote 10.0.0.2 as 65002; }`,
	}
	tn := newTestNet(t, configs, [][2]string{{"provider", "customer"}})
	provider := tn.routers["provider"]
	seed := provider.LastObserved("customer")
	if seed == nil {
		t.Fatal("no observed update to seed from")
	}

	sink := netsim.NewCaptureSink()
	handler := func(rc *concolic.RunContext) any {
		clone := provider.Clone(sink)
		return clone.ExploreUpdate(rc, "customer", seed)
	}
	eng := concolic.NewEngine(handler, concolic.Options{MaxRuns: 500})
	if err := UpdateInputs.Declare(eng, seed); err != nil {
		t.Fatal(err)
	}
	rep := eng.Explore()

	if len(rep.Paths) < 3 {
		t.Fatalf("too few paths: %d", len(rep.Paths))
	}
	// Exploration must find an accepted prefix outside the customer's
	// legitimate space (the leak through the net.len >= 25 hole).
	leak := false
	for _, p := range rep.Paths {
		out, ok := p.Output.(Outcome)
		if !ok || !out.Accepted {
			continue
		}
		if !pfx("10.7.0.0/16").Covers(out.Prefix) {
			leak = true
		}
	}
	if !leak {
		t.Fatalf("exploration did not find the filter hole in %d paths", len(rep.Paths))
	}
	// Live provider state untouched by exploration.
	if provider.RIB().Best(pfx("10.7.0.0/16")) == nil {
		t.Fatal("live RIB damaged by exploration")
	}
}

// TestRouterRobustUnderRandomStreams: property-style robustness — a
// random stream of announces/withdraws (including duplicates, unknown
// withdrawals and repeated prefixes) never panics and keeps the RIB
// counters consistent with a reference map.
func TestRouterRobustUnderRandomStreams(t *testing.T) {
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	a, b := tn.routers["a"], tn.routers["b"]
	sess := a.Session("b")

	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}

	ref := map[netaddr.Prefix]bool{}
	for i := 0; i < 2000; i++ {
		addr := netaddr.Addr(uint32(next()))
		bits := int(next() % 25)
		p := netaddr.PrefixFrom(addr, bits)
		if next()%10 < 3 {
			if err := sess.SendUpdate(&bgp.Update{Withdrawn: []netaddr.Prefix{p}}); err != nil {
				t.Fatal(err)
			}
			delete(ref, p)
		} else {
			u := &bgp.Update{
				Attrs: bgp.Attrs{
					HasOrigin:  true,
					Origin:     uint8(next() % 3),
					ASPath:     bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{65001, uint16(next()%60000 + 1)}}},
					HasNextHop: true,
					NextHop:    ip("10.0.0.1"),
				},
				NLRI: []netaddr.Prefix{p},
			}
			if err := sess.SendUpdate(u); err != nil {
				t.Fatal(err)
			}
			ref[p] = true
		}
		if i%64 == 0 {
			tn.net.Run(0)
		}
	}
	tn.net.Run(0)

	// b's view: every announced prefix present, every withdrawn gone
	// (modulo b's own originated/learned baseline of 1 prefix from a).
	for p, want := range ref {
		got := b.RIB().Best(p) != nil
		// a's own network may overlap random prefixes; skip that one.
		if p == pfx("10.1.0.0/16") {
			continue
		}
		if got != want {
			t.Fatalf("prefix %v: present=%v want=%v", p, got, want)
		}
	}
}

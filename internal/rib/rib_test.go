package rib

import (
	"sort"
	"testing"
	"testing/quick"

	"dice/internal/bgp"
	"dice/internal/netaddr"
	"dice/internal/trace"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }
func ip(s string) netaddr.Addr    { return netaddr.MustParseAddr(s) }

// mkRoute builds a route with the given origin AS at the end of the path.
func mkRoute(prefix string, peerID string, peerAS uint16, pathASNs ...uint16) *Route {
	return &Route{
		Prefix: pfx(prefix),
		Attrs: bgp.Attrs{
			HasOrigin:  true,
			Origin:     bgp.OriginIGP,
			ASPath:     bgp.ASPath{{Type: bgp.ASSequence, ASNs: pathASNs}},
			HasNextHop: true,
			NextHop:    ip(peerID),
		},
		PeerRouterID: ip(peerID),
		PeerAS:       peerAS,
		EBGP:         true,
	}
}

func TestInsertLookup(t *testing.T) {
	tb := New()
	r := mkRoute("203.0.113.0/24", "10.0.0.1", 65001, 65001)
	ch := tb.Insert(r)
	if !ch.Changed() || ch.New != r {
		t.Fatalf("insert change: %+v", ch)
	}
	if got := tb.Best(pfx("203.0.113.0/24")); got != r {
		t.Fatal("Best did not return inserted route")
	}
	if tb.Prefixes() != 1 || tb.Routes() != 1 {
		t.Fatalf("counts: %d/%d", tb.Prefixes(), tb.Routes())
	}
	if got := tb.Best(pfx("203.0.113.0/25")); got != nil {
		t.Fatal("more specific should not match exact lookup")
	}
}

func TestImplicitWithdraw(t *testing.T) {
	tb := New()
	r1 := mkRoute("203.0.113.0/24", "10.0.0.1", 65001, 65001)
	r2 := mkRoute("203.0.113.0/24", "10.0.0.1", 65001, 65001, 65005)
	tb.Insert(r1)
	ch := tb.Insert(r2) // same peer: replaces r1
	if tb.Routes() != 1 {
		t.Fatalf("routes = %d, want 1 (implicit withdraw)", tb.Routes())
	}
	if ch.New != r2 {
		t.Fatal("replacement not selected")
	}
}

func TestWithdraw(t *testing.T) {
	tb := New()
	r1 := mkRoute("203.0.113.0/24", "10.0.0.1", 65001, 65001)
	r2 := mkRoute("203.0.113.0/24", "10.0.0.2", 65002, 65002)
	tb.Insert(r1)
	tb.Insert(r2)

	ch := tb.Withdraw(pfx("203.0.113.0/24"), ip("10.0.0.1"))
	if ch.New == nil || ch.New.PeerRouterID != ip("10.0.0.2") {
		t.Fatalf("after withdraw best = %+v", ch.New)
	}
	ch = tb.Withdraw(pfx("203.0.113.0/24"), ip("10.0.0.2"))
	if ch.New != nil || tb.Prefixes() != 0 {
		t.Fatal("prefix should be gone")
	}
	// Withdrawing a non-existent route is a no-op.
	ch = tb.Withdraw(pfx("198.51.100.0/24"), ip("10.0.0.1"))
	if ch.Changed() {
		t.Fatal("withdraw of missing route changed something")
	}
}

func TestDecisionLocalPref(t *testing.T) {
	tb := New()
	lo := mkRoute("203.0.113.0/24", "10.0.0.1", 65001, 65001)
	hi := mkRoute("203.0.113.0/24", "10.0.0.2", 65002, 65002, 65003)
	hi.Attrs.HasLocalPref, hi.Attrs.LocalPref = true, 200
	tb.Insert(lo)
	tb.Insert(hi)
	if best := tb.Best(pfx("203.0.113.0/24")); best != hi {
		t.Fatalf("LOCAL_PREF 200 should beat shorter path: got %v", best)
	}
}

func TestDecisionASPathLength(t *testing.T) {
	tb := New()
	long := mkRoute("203.0.113.0/24", "10.0.0.1", 65001, 65001, 65002, 65003)
	short := mkRoute("203.0.113.0/24", "10.0.0.2", 65002, 65002)
	tb.Insert(long)
	tb.Insert(short)
	if best := tb.Best(pfx("203.0.113.0/24")); best != short {
		t.Fatalf("shorter AS path should win: got %v", best)
	}
}

func TestDecisionASSetCountsAsOne(t *testing.T) {
	tb := New()
	seqTwo := mkRoute("203.0.113.0/24", "10.0.0.1", 65001, 65001, 65009)
	setRoute := mkRoute("203.0.113.0/24", "10.0.0.2", 65002, 65002)
	setRoute.Attrs.ASPath = append(setRoute.Attrs.ASPath,
		bgp.ASPathSegment{Type: bgp.ASSet, ASNs: []uint16{65003, 65004, 65005}})
	// setRoute length = 1 (seq) + 1 (set) = 2 == seqTwo length 2; falls to
	// origin/router-id tiebreak → lower router ID 10.0.0.1 wins.
	tb.Insert(seqTwo)
	tb.Insert(setRoute)
	if best := tb.Best(pfx("203.0.113.0/24")); best != seqTwo {
		t.Fatalf("tiebreak wrong: got %v", best)
	}
}

func TestDecisionOrigin(t *testing.T) {
	tb := New()
	igp := mkRoute("203.0.113.0/24", "10.0.0.2", 65002, 65002)
	egp := mkRoute("203.0.113.0/24", "10.0.0.1", 65001, 65001)
	egp.Attrs.Origin = bgp.OriginEGP
	tb.Insert(egp)
	tb.Insert(igp)
	if best := tb.Best(pfx("203.0.113.0/24")); best != igp {
		t.Fatalf("IGP origin should win: got %v", best)
	}
}

func TestDecisionMEDSameNeighborOnly(t *testing.T) {
	tb := New()
	// Same neighbor AS: lower MED wins.
	a := mkRoute("203.0.113.0/24", "10.0.0.1", 65001, 65001)
	a.Attrs.HasMED, a.Attrs.MED = true, 50
	b := mkRoute("203.0.113.0/24", "10.0.0.2", 65001, 65001)
	b.Attrs.HasMED, b.Attrs.MED = true, 10
	tb.Insert(a)
	tb.Insert(b)
	if best := tb.Best(pfx("203.0.113.0/24")); best != b {
		t.Fatalf("lower MED should win: got %v", best)
	}

	// Different neighbor AS: MED ignored; router-id decides.
	tb2 := New()
	c := mkRoute("203.0.113.0/24", "10.0.0.1", 65001, 65001)
	c.Attrs.HasMED, c.Attrs.MED = true, 500
	d := mkRoute("203.0.113.0/24", "10.0.0.2", 65002, 65002)
	d.Attrs.HasMED, d.Attrs.MED = true, 1
	tb2.Insert(c)
	tb2.Insert(d)
	if best := tb2.Best(pfx("203.0.113.0/24")); best != c {
		t.Fatalf("MED must not compare across ASes: got %v", best)
	}
}

func TestDecisionEBGPOverIBGP(t *testing.T) {
	tb := New()
	i := mkRoute("203.0.113.0/24", "10.0.0.1", 65000, 65009)
	i.EBGP = false
	e := mkRoute("203.0.113.0/24", "10.0.0.2", 65002, 65009)
	tb.Insert(i)
	tb.Insert(e)
	if best := tb.Best(pfx("203.0.113.0/24")); best != e {
		t.Fatalf("eBGP should win: got %v", best)
	}
}

func TestDecisionLocalWins(t *testing.T) {
	tb := New()
	learned := mkRoute("203.0.113.0/24", "10.0.0.1", 65001, 65001)
	local := &Route{Prefix: pfx("203.0.113.0/24"), Local: true}
	tb.Insert(learned)
	tb.Insert(local)
	if best := tb.Best(pfx("203.0.113.0/24")); best != local {
		t.Fatalf("local route should win: got %v", best)
	}
}

// TestLongestMatch: an address's route is CoveringBest of its /32 — the
// most specific of the nested prefixes containing it.
func TestLongestMatch(t *testing.T) {
	tb := New()
	r8 := mkRoute("10.0.0.0/8", "10.0.0.1", 65001, 65001)
	r16 := mkRoute("10.1.0.0/16", "10.0.0.1", 65001, 65001)
	r24 := mkRoute("10.1.2.0/24", "10.0.0.1", 65001, 65001)
	tb.Insert(r8)
	tb.Insert(r16)
	tb.Insert(r24)

	cases := []struct {
		addr string
		want *Route
	}{
		{"10.1.2.3", r24},
		{"10.1.9.9", r16},
		{"10.9.9.9", r8},
		{"11.0.0.1", nil},
	}
	for _, c := range cases {
		if got := tb.CoveringBest(netaddr.PrefixFrom(ip(c.addr), 32)); got != c.want {
			t.Errorf("CoveringBest(%s/32) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestCoveringBest(t *testing.T) {
	tb := New()
	r16 := mkRoute("10.1.0.0/16", "10.0.0.1", 65001, 65001)
	tb.Insert(r16)
	if got := tb.CoveringBest(pfx("10.1.2.0/24")); got != r16 {
		t.Fatalf("CoveringBest(/24) = %v, want /16 route", got)
	}
	if got := tb.CoveringBest(pfx("10.1.0.0/16")); got != r16 {
		t.Fatalf("CoveringBest(exact) = %v", got)
	}
	if got := tb.CoveringBest(pfx("10.0.0.0/8")); got != nil {
		t.Fatalf("CoveringBest(less specific) = %v, want nil", got)
	}
}

func TestWithdrawPeer(t *testing.T) {
	tb := New()
	tb.Insert(mkRoute("10.1.0.0/16", "10.0.0.1", 65001, 65001))
	tb.Insert(mkRoute("10.2.0.0/16", "10.0.0.1", 65001, 65001))
	tb.Insert(mkRoute("10.2.0.0/16", "10.0.0.2", 65002, 65002))
	changes := tb.WithdrawPeer(ip("10.0.0.1"))
	if len(changes) != 2 {
		t.Fatalf("changes = %d, want 2", len(changes))
	}
	if tb.Best(pfx("10.1.0.0/16")) != nil {
		t.Fatal("10.1/16 should be gone")
	}
	if b := tb.Best(pfx("10.2.0.0/16")); b == nil || b.PeerRouterID != ip("10.0.0.2") {
		t.Fatalf("10.2/16 best = %v", b)
	}
}

func TestDumpSorted(t *testing.T) {
	tb := New()
	tb.Insert(mkRoute("192.168.0.0/16", "10.0.0.1", 65001, 65001))
	tb.Insert(mkRoute("10.0.0.0/8", "10.0.0.1", 65001, 65001))
	tb.Insert(mkRoute("10.0.0.0/16", "10.0.0.1", 65001, 65001))
	d := tb.Dump()
	if len(d) != 3 || d[0].Prefix.String() != "10.0.0.0/8" || d[1].Prefix.String() != "10.0.0.0/16" {
		t.Fatalf("dump order: %v", d)
	}
}

func TestRouteString(t *testing.T) {
	r := mkRoute("10.0.0.0/8", "10.0.0.1", 65001, 65001)
	r.Attrs.HasLocalPref, r.Attrs.LocalPref = true, 100
	r.Attrs.HasMED, r.Attrs.MED = true, 5
	s := r.String()
	for _, want := range []string{"10.0.0.0/8", "65001", "IGP", "local-pref 100", "med 5"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: the trie agrees with a reference map for arbitrary
// insert/withdraw sequences (exact-match semantics).
func TestTrieMatchesReferenceMap(t *testing.T) {
	f := func(ops []struct {
		Addr     uint32
		Bits     uint8
		Peer     uint8
		Withdraw bool
	}) bool {
		tb := New()
		ref := map[netaddr.Prefix]map[netaddr.Addr]bool{}
		for _, op := range ops {
			p := netaddr.PrefixFrom(netaddr.Addr(op.Addr), int(op.Bits%33))
			peer := netaddr.AddrFrom4(10, 0, 0, op.Peer)
			if op.Withdraw {
				tb.Withdraw(p, peer)
				if m := ref[p]; m != nil {
					delete(m, peer)
					if len(m) == 0 {
						delete(ref, p)
					}
				}
			} else {
				r := mkRoute(p.String(), peer.String(), uint16(op.Peer)+1, uint16(op.Peer)+1)
				tb.Insert(r)
				if ref[p] == nil {
					ref[p] = map[netaddr.Addr]bool{}
				}
				ref[p][peer] = true
			}
		}
		if tb.Prefixes() != len(ref) {
			return false
		}
		total := 0
		for p, peers := range ref {
			total += len(peers)
			if tb.Best(p) == nil {
				return false
			}
			if len(tb.Candidates(p)) != len(peers) {
				return false
			}
		}
		return tb.Routes() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dump needs no sort — the trie's pre-order walk is already
// Prefix.Compare order (address, then length). Addresses are drawn from
// a few bits so that many prefixes nest and share an address at
// different lengths, which is where the two orders could part.
func TestDumpWalksInCompareOrder(t *testing.T) {
	f := func(ops []struct {
		Addr uint32
		Bits uint8
	}) bool {
		tb := New()
		var want []netaddr.Prefix
		seen := map[netaddr.Prefix]bool{}
		for _, op := range ops {
			p := netaddr.PrefixFrom(netaddr.Addr(op.Addr&0xC0C0C0C0), int(op.Bits%33))
			tb.Insert(mkRoute(p.String(), "10.0.0.1", 65001, 65001))
			if !seen[p] {
				seen[p] = true
				want = append(want, p)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
		got := tb.Dump()
		if len(got) != len(want) {
			return false
		}
		for i, r := range got {
			if r.Prefix != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: better() is a strict total order on routes with distinct
// router IDs (antisymmetric and total), which selectBest requires.
func TestBetterIsStrictOrder(t *testing.T) {
	f := func(lpA, lpB uint32, pathLenA, pathLenB, originA, originB uint8, idA, idB uint8) bool {
		if idA == idB {
			return true
		}
		mk := func(lp uint32, plen, origin, id uint8) *Route {
			asns := make([]uint16, int(plen%5)+1)
			for i := range asns {
				asns[i] = uint16(i) + 1
			}
			return &Route{
				Prefix: pfx("10.0.0.0/8"),
				Attrs: bgp.Attrs{
					HasLocalPref: true,
					LocalPref:    lp % 1000,
					Origin:       origin % 3,
					HasOrigin:    true,
					ASPath:       bgp.ASPath{{Type: bgp.ASSequence, ASNs: asns}},
				},
				PeerRouterID: netaddr.AddrFrom4(10, 0, 0, id),
				PeerAS:       100,
				EBGP:         true,
			}
		}
		a := mk(lpA, pathLenA, originA, idA)
		b := mk(lpB, pathLenB, originB, idB)
		return better(a, b) != better(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tb := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := netaddr.PrefixFrom(netaddr.Addr(uint32(i)<<8), 24)
		tb.Insert(&Route{
			Prefix:       p,
			Attrs:        bgp.Attrs{ASPath: bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{65001}}}},
			PeerRouterID: ip("10.0.0.1"),
			PeerAS:       65001,
			EBGP:         true,
		})
	}
}

func BenchmarkLongestMatch(b *testing.B) {
	tb := New()
	for i := 0; i < 100000; i++ {
		p := netaddr.PrefixFrom(netaddr.Addr(uint32(i)<<12), 20)
		tb.Insert(mkRoute(p.String(), "10.0.0.1", 65001, 65001))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.CoveringBest(netaddr.PrefixFrom(netaddr.Addr(uint32(i)*2654435761), 32))
	}
}

// traceRoutes returns the first n records of a trace.Generate full table
// as routes from one peer, the shape of a loaded Loc-RIB: realistic
// prefix lengths over the whole unicast space.
func traceRoutes(n int) []*Route {
	cfg := trace.DefaultGenConfig()
	cfg.TableSize, cfg.UpdateCount = n, 0
	routes := make([]*Route, 0, n)
	for _, rec := range trace.Generate(cfg) {
		routes = append(routes, &Route{
			Prefix:       rec.Prefix,
			Attrs:        rec.Attrs,
			PeerRouterID: netaddr.AddrFrom4(10, 0, 0, 1),
			PeerAS:       cfg.PeerAS,
			EBGP:         true,
		})
	}
	return routes
}

// BenchmarkLoadTable20k loads a 20k trace.Generate table into a fresh
// Table, as a router does when its first peer dumps its table.
func BenchmarkLoadTable20k(b *testing.B) {
	routes := traceRoutes(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := New()
		for _, r := range routes {
			tb.Insert(r)
		}
	}
}

// BenchmarkCoveringBestTable looks up covering routes on that table:
// every other probe one of its own prefixes, the rest random addresses.
func BenchmarkCoveringBestTable(b *testing.B) {
	routes := traceRoutes(20000)
	tb := New()
	for _, r := range routes {
		tb.Insert(r)
	}
	probes := make([]netaddr.Prefix, 4096)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = routes[i*7919%len(routes)].Prefix
		} else {
			probes[i] = netaddr.PrefixFrom(netaddr.Addr(uint32(i)*2654435761), 32)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeSink = tb.CoveringBest(probes[i%len(probes)])
	}
}

var routeSink *Route

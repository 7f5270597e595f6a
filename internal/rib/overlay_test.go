package rib

import (
	"testing"
	"testing/quick"

	"dice/internal/netaddr"
)

func baseWithRoutes(t *testing.T) *Table {
	t.Helper()
	tb := New()
	tb.Insert(mkRoute("10.0.0.0/8", "10.0.0.1", 65001, 65001))
	tb.Insert(mkRoute("10.1.0.0/16", "10.0.0.1", 65001, 65001))
	tb.Insert(mkRoute("192.168.0.0/16", "10.0.0.2", 65002, 65002))
	return tb
}

func TestOverlayReadsFallThrough(t *testing.T) {
	base := baseWithRoutes(t)
	o := NewOverlay(base)
	if o.Best(pfx("10.0.0.0/8")) != base.Best(pfx("10.0.0.0/8")) {
		t.Fatal("read did not fall through")
	}
	if o.Prefixes() != base.Prefixes() || o.Routes() != base.Routes() {
		t.Fatal("counts differ before any write")
	}
	if o.CoveringBest(pfx("10.1.2.0/24")) != base.Best(pfx("10.1.0.0/16")) {
		t.Fatal("covering lookup wrong")
	}
	if o.CoveringBest(pfx("10.1.2.3/32")) != base.Best(pfx("10.1.0.0/16")) {
		t.Fatal("longest match wrong")
	}
}

func TestOverlayWriteDoesNotTouchBase(t *testing.T) {
	base := baseWithRoutes(t)
	beforeRoutes := base.Routes()
	o := NewOverlay(base)

	o.Insert(mkRoute("10.1.0.0/16", "10.0.0.9", 65009, 65009))
	if base.Routes() != beforeRoutes {
		t.Fatal("overlay write leaked into base")
	}
	// Overlay sees both candidates.
	if got := len(o.Candidates(pfx("10.1.0.0/16"))); got != 2 {
		t.Fatalf("overlay candidates = %d, want 2", got)
	}
	if got := len(base.Candidates(pfx("10.1.0.0/16"))); got != 1 {
		t.Fatalf("base candidates = %d, want 1", got)
	}
	if o.Routes() != beforeRoutes+1 {
		t.Fatalf("overlay route count %d, want %d", o.Routes(), beforeRoutes+1)
	}
	if got := len(o.entries); got != 1 {
		t.Fatalf("private entries = %d, want 1", got)
	}
}

func TestOverlayWithdraw(t *testing.T) {
	base := baseWithRoutes(t)
	o := NewOverlay(base)
	ch := o.Withdraw(pfx("192.168.0.0/16"), ip("10.0.0.2"))
	if !ch.Changed() {
		t.Fatal("withdraw did not change best")
	}
	if o.Best(pfx("192.168.0.0/16")) != nil {
		t.Fatal("overlay still sees withdrawn route")
	}
	if base.Best(pfx("192.168.0.0/16")) == nil {
		t.Fatal("withdraw leaked into base")
	}
	if o.Prefixes() != base.Prefixes()-1 {
		t.Fatalf("prefix count %d, want %d", o.Prefixes(), base.Prefixes()-1)
	}
}

func TestOverlayNewPrefix(t *testing.T) {
	base := baseWithRoutes(t)
	o := NewOverlay(base)
	o.Insert(mkRoute("172.16.0.0/12", "10.0.0.9", 65009, 65009))
	if o.Best(pfx("172.16.0.0/12")) == nil {
		t.Fatal("new prefix missing in overlay")
	}
	if base.Best(pfx("172.16.0.0/12")) != nil {
		t.Fatal("new prefix leaked into base")
	}
	if o.Prefixes() != base.Prefixes()+1 {
		t.Fatal("prefix delta wrong")
	}
}

func TestOverlayWalkMergesSorted(t *testing.T) {
	base := baseWithRoutes(t)
	o := NewOverlay(base)
	o.Insert(mkRoute("11.0.0.0/8", "10.0.0.9", 65009, 65009))
	o.Withdraw(pfx("192.168.0.0/16"), ip("10.0.0.2"))

	var got []string
	o.Walk(func(r *Route) bool {
		got = append(got, r.Prefix.String())
		return true
	})
	want := []string{"10.0.0.0/8", "10.1.0.0/16", "11.0.0.0/8"}
	if len(got) != len(want) {
		t.Fatalf("walk: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order: %v", got)
		}
	}
	if d := o.Dump(); len(d) != 3 {
		t.Fatalf("dump: %v", d)
	}
}

func TestOverlayWithdrawPeer(t *testing.T) {
	base := baseWithRoutes(t)
	o := NewOverlay(base)
	chs := o.WithdrawPeer(ip("10.0.0.1"))
	if len(chs) != 2 {
		t.Fatalf("changes = %d, want 2", len(chs))
	}
	if o.Best(pfx("10.0.0.0/8")) != nil || o.Best(pfx("10.1.0.0/16")) != nil {
		t.Fatal("peer routes still visible in overlay")
	}
	if base.Best(pfx("10.0.0.0/8")) == nil {
		t.Fatal("base mutated")
	}
}

func TestOverlayCoveringAcrossBaseAndLocal(t *testing.T) {
	base := baseWithRoutes(t)
	o := NewOverlay(base)
	// Insert a more specific local route; covering lookups for an even
	// more specific prefix must find the local one, not the base /16.
	loc := mkRoute("10.1.2.0/24", "10.0.0.9", 65009, 65009)
	o.Insert(loc)
	if got := o.CoveringBest(pfx("10.1.2.128/25")); got != loc {
		t.Fatalf("covering = %v, want local /24", got)
	}
	// And after withdrawing an owned base prefix, covering falls back.
	o.Withdraw(pfx("10.1.0.0/16"), ip("10.0.0.1"))
	if got := o.CoveringBest(pfx("10.1.3.0/24")); got == nil || got.Prefix != pfx("10.0.0.0/8") {
		t.Fatalf("covering after withdraw = %v, want /8", got)
	}
}

// Property: an Overlay behaves exactly like a deep copy of the base under
// an arbitrary sequence of inserts/withdraws (observational equivalence).
func TestOverlayEquivalentToDeepCopy(t *testing.T) {
	f := func(ops []struct {
		Addr     uint32
		Bits     uint8
		Peer     uint8
		Withdraw bool
	}) bool {
		base := New()
		base.Insert(mkRoute("10.0.0.0/8", "10.0.0.1", 65001, 65001))
		base.Insert(mkRoute("20.0.0.0/8", "10.0.0.2", 65002, 65002))

		// Deep copy reference.
		ref := New()
		base.WalkAll(func(p netaddr.Prefix, cs []*Route) bool {
			for _, c := range cs {
				ref.Insert(c)
			}
			return true
		})
		o := NewOverlay(base)

		if len(ops) > 40 {
			ops = ops[:40]
		}
		for _, op := range ops {
			p := netaddr.PrefixFrom(netaddr.Addr(op.Addr), int(op.Bits%33))
			peer := netaddr.AddrFrom4(10, 0, 0, op.Peer)
			if op.Withdraw {
				ref.Withdraw(p, peer)
				o.Withdraw(p, peer)
			} else {
				r := mkRoute(p.String(), peer.String(), uint16(op.Peer)+1, uint16(op.Peer)+1)
				ref.Insert(r)
				o.Insert(r)
			}
		}
		if ref.Prefixes() != o.Prefixes() || ref.Routes() != o.Routes() {
			return false
		}
		refDump := ref.Dump()
		oDump := o.Dump()
		if len(refDump) != len(oDump) {
			return false
		}
		for i := range refDump {
			if refDump[i].Prefix != oDump[i].Prefix ||
				refDump[i].PeerRouterID != oDump[i].PeerRouterID {
				return false
			}
		}
		same := func(a, b *Route) bool {
			return a == nil && b == nil || a != nil && b != nil && a.Prefix == b.Prefix && a.PeerRouterID == b.PeerRouterID
		}
		for _, op := range ops {
			for _, bits := range []int{int(op.Bits % 33), 32, 8} {
				q := netaddr.PrefixFrom(netaddr.Addr(op.Addr), bits)
				if !same(ref.CoveringBest(q), o.CoveringBest(q)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkOverlayCreate(b *testing.B) {
	base := New()
	for i := 0; i < 100000; i++ {
		base.Insert(mkRoute(netaddr.PrefixFrom(netaddr.Addr(uint32(i)<<12), 20).String(), "10.0.0.1", 65001, 65001))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewOverlay(base)
		_ = o
	}
}

func BenchmarkOverlayInsertOne(b *testing.B) {
	base := New()
	for i := 0; i < 100000; i++ {
		base.Insert(mkRoute(netaddr.PrefixFrom(netaddr.Addr(uint32(i)<<12), 20).String(), "10.0.0.1", 65001, 65001))
	}
	r := mkRoute("203.0.113.0/24", "10.0.0.9", 65009, 65009)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewOverlay(base)
		o.Insert(r)
	}
}

// TestOverlayFirstWriteCostIndependentOfLength: an overlay's first write
// to a prefix allocates the same objects for a /8 as for a /32 — the
// private store is keyed by prefix, not a second trie walked bit by bit.
func TestOverlayFirstWriteCostIndependentOfLength(t *testing.T) {
	base := baseWithRoutes(t)
	firstWrite := func(p string) float64 {
		r := mkRoute(p, "10.0.0.9", 65009, 65009)
		return testing.AllocsPerRun(100, func() { NewOverlay(base).Insert(r) })
	}
	short, long := firstWrite("11.0.0.0/8"), firstWrite("11.22.33.44/32")
	if short != long {
		t.Fatalf("first write allocates %v objects for a /8 and %v for a /32", short, long)
	}
}

// TestOverlayWithdrawPeerMatchesDeepCopy: a session drop on an overlay
// reports the changes, in the order, a deep copy of the base reports, and
// leaves the same table behind.
func TestOverlayWithdrawPeerMatchesDeepCopy(t *testing.T) {
	base := baseWithRoutes(t)
	base.Insert(mkRoute("10.1.0.0/16", "10.0.0.2", 65002, 65002))
	ref := New()
	base.WalkAll(func(_ netaddr.Prefix, cs []*Route) bool {
		for _, c := range cs {
			ref.Insert(c)
		}
		return true
	})
	o := NewOverlay(base)
	added := mkRoute("10.9.0.0/16", "10.0.0.1", 65001, 65001)
	for _, tb := range []RouteTable{ref, o} {
		tb.Insert(added)
		tb.Withdraw(pfx("192.168.0.0/16"), ip("10.0.0.2"))
	}
	want, got := ref.WithdrawPeer(ip("10.0.0.1")), o.WithdrawPeer(ip("10.0.0.1"))
	if len(got) != len(want) {
		t.Fatalf("overlay reports %d changes, the deep copy %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Prefix != want[i].Prefix || got[i].Old != want[i].Old || got[i].New != want[i].New {
			t.Fatalf("change %d: overlay %+v, deep copy %+v", i, got[i], want[i])
		}
	}
	if o.Prefixes() != ref.Prefixes() || o.Routes() != ref.Routes() {
		t.Fatalf("counts: overlay %d/%d, deep copy %d/%d", o.Prefixes(), o.Routes(), ref.Prefixes(), ref.Routes())
	}
	rd, od := ref.Dump(), o.Dump()
	if len(rd) != len(od) {
		t.Fatalf("dump: overlay %v, deep copy %v", od, rd)
	}
	for i := range rd {
		if rd[i] != od[i] {
			t.Fatalf("dump %d: overlay %v, deep copy %v", i, od[i], rd[i])
		}
	}
}

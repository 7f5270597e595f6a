package rib

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"dice/internal/bgp"
	"dice/internal/netaddr"
)

// cloneOp is one step of the clone differential. Addresses come from a
// 256-value grid and lengths from /0 to /20, so prefixes nest and share
// trie paths: a write on one side of a clone must copy every node and
// candidate list it changes that the other side still reaches.
type cloneOp struct {
	Kind uint8 // bits 0-1: 0, 1 insert, 2 withdraw, 3 WithdrawPeer; bits 2-3: the side after the clone (0 source, 1 clone, else both)
	Addr uint8
	Bits uint8
	Src  uint8 // bits 0-1: peer 10.0.0.1-4; 0b111 in bits 0-2: a local route; bits 3-7: LOCAL_PREF
}

func (op cloneOp) prefix() netaddr.Prefix {
	a := uint32(op.Addr)
	return netaddr.PrefixFrom(netaddr.Addr((a&0xF0)<<24|(a&0x0F)<<20), int(op.Bits%21))
}

func (op cloneOp) peer() netaddr.Addr { return netaddr.AddrFrom4(10, 0, 0, op.Src&3+1) }

// route builds a fresh route for an insert: each insert is a new value,
// as the router's pipeline makes one per accepted announcement.
func (op cloneOp) route() *Route {
	r := &Route{
		Prefix: op.prefix(),
		Attrs: bgp.Attrs{
			HasOrigin: true, Origin: bgp.OriginIGP,
			ASPath:       bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{65001 + uint16(op.Src&3)}}},
			HasLocalPref: true, LocalPref: uint32(op.Src >> 3),
		},
		PeerRouterID: op.peer(),
		PeerAS:       65001 + uint16(op.Src&3),
		EBGP:         true,
	}
	if op.Src&7 == 7 {
		r.Local, r.PeerRouterID = true, 0
	}
	return r
}

// decodeCloneOps reads four bytes per op.
func decodeCloneOps(data []byte) []cloneOp {
	ops := make([]cloneOp, 0, len(data)/4)
	for ; len(data) >= 4; data = data[4:] {
		ops = append(ops, cloneOp{data[0], data[1], data[2], data[3]})
	}
	return ops
}

// ribModel is the reference a table is held to: each prefix's candidates
// in arrival order, a same-source arrival replacing its predecessor in
// place (RFC 4271 §3.1's implicit withdraw), a withdrawal removing the
// peer's learned route.
type ribModel map[netaddr.Prefix][]*Route

func (m ribModel) insert(r *Route) {
	cs := m[r.Prefix]
	for i, c := range cs {
		if c.Local == r.Local && (r.Local || c.PeerRouterID == r.PeerRouterID) {
			cs[i] = r
			return
		}
	}
	m[r.Prefix] = append(cs, r)
}

func (m ribModel) withdraw(p netaddr.Prefix, peer netaddr.Addr) {
	cs := m[p]
	i := slices.IndexFunc(cs, func(c *Route) bool { return !c.Local && c.PeerRouterID == peer })
	if i < 0 {
		return
	}
	if cs = slices.Delete(cs, i, i+1); len(cs) == 0 {
		delete(m, p)
	} else {
		m[p] = cs
	}
}

func (m ribModel) withdrawPeer(peer netaddr.Addr) {
	for p := range m {
		m.withdraw(p, peer)
	}
}

func (m ribModel) clone() ribModel {
	c := make(ribModel, len(m))
	for p, cs := range m {
		c[p] = slices.Clone(cs)
	}
	return c
}

// best is the first candidate no later one beats, the decision process
// applied to the model's order.
func (m ribModel) best(p netaddr.Prefix) *Route {
	var best *Route
	for _, c := range m[p] {
		if best == nil || better(c, best) {
			best = c
		}
	}
	return best
}

func (m ribModel) covering(p netaddr.Prefix) *Route {
	for bits := p.Bits(); bits >= 0; bits-- {
		if b := m.best(netaddr.PrefixFrom(p.Addr(), bits)); b != nil {
			return b
		}
	}
	return nil
}

// apply runs op on tb and on its model.
func (m ribModel) apply(tb RouteTable, op cloneOp) {
	switch op.Kind & 3 {
	case 0, 1:
		r := op.route()
		tb.Insert(r)
		m.insert(r)
	case 2:
		tb.Withdraw(op.prefix(), op.peer())
		m.withdraw(op.prefix(), op.peer())
	case 3:
		tb.WithdrawPeer(op.peer())
		m.withdrawPeer(op.peer())
	}
}

// walkRange returns the model's best routes WalkRange must visit, in
// prefix order; keys are the model's prefixes, sorted. A prefix's span
// meets a non-empty [lo, hi] when it holds lo or starts inside it.
func (m ribModel) walkRange(keys []netaddr.Prefix, rg addrRange) []*Route {
	var out []*Route
	for _, p := range keys {
		meets := rg.lo <= rg.hi && (p.Contains(rg.lo) || (rg.lo <= p.Addr() && p.Addr() <= rg.hi))
		if meets && p.Bits() <= rg.maxBits {
			out = append(out, m.best(p))
		}
	}
	return out
}

// sorted returns the model's prefixes in prefix order.
func (m ribModel) sorted() []netaddr.Prefix {
	keys := make([]netaddr.Prefix, 0, len(m))
	for p := range m {
		keys = append(keys, p)
	}
	slices.SortFunc(keys, netaddr.Prefix.Compare)
	return keys
}

// addrRange is one WalkRange query.
type addrRange struct {
	lo, hi  netaddr.Addr
	maxBits int
}

// rangesOf returns the fixed WalkRange queries — the whole space at
// maxBits −1, 0, 32 and 40, a single address, ranges running to
// 255.255.255.255, an empty one — and three per op, around the op's
// prefix p: p's own span, up to a length taken from its source byte; one
// starting on p's last address and one ending on p's first, whose other
// ends, drawn from all of the op's bytes, need not fall on any prefix's
// boundary (one that would wrap round the address space stays a single
// address).
func rangesOf(ops []cloneOp) []addrRange {
	top := netaddr.Addr(0xffffffff)
	out := []addrRange{
		{0, top, 0}, {0, top, 32}, {0, top, 40}, {0, top, -1},
		{0x81000000, 0x81000000, 32}, {0x80000000, top, 32}, {0x80000000, top, 4},
		{0x90000000, 0x8fffffff, 32},
	}
	for _, op := range ops {
		p := op.prefix()
		first, last := p.Addr(), p.Addr()|^netaddr.Mask(p.Bits())
		span := netaddr.Addr(uint32(op.Bits)<<20 | uint32(op.Src)<<4 | uint32(op.Kind))
		out = append(out,
			addrRange{first, last, int(op.Src % 33)},
			addrRange{last, max(last+span, last), int(op.Kind % 34)},
			addrRange{min(first-span, first), first, int(op.Addr % 34)})
	}
	return out
}

// check holds tb to m: counts, Dump, WalkAll with candidate order, Best
// and CoveringBest at every probe, and WalkRange over every range; a
// Table's trie to its shape (trieShape) as well. Routes compare by
// identity: a clone shares them.
func (m ribModel) check(tb RouteTable, probes []netaddr.Prefix, ranges []addrRange) error {
	if t, ok := tb.(*Table); ok {
		if _, err := trieShape(t); err != nil {
			return err
		}
	}
	keys := m.sorted()
	for _, rg := range ranges {
		var got []*Route
		tb.WalkRange(rg.lo, rg.hi, rg.maxBits, func(r *Route) bool {
			got = append(got, r)
			return true
		})
		if want := m.walkRange(keys, rg); !slices.Equal(got, want) {
			return fmt.Errorf("WalkRange(%s, %s, %d) = %v, model %v", rg.lo, rg.hi, rg.maxBits, got, want)
		}
	}
	routes := 0
	for _, cs := range m {
		routes += len(cs)
	}
	if tb.Prefixes() != len(keys) || tb.Routes() != routes {
		return fmt.Errorf("counts %d/%d, model %d/%d", tb.Prefixes(), tb.Routes(), len(keys), routes)
	}
	dump := tb.Dump()
	if len(dump) != len(keys) {
		return fmt.Errorf("Dump has %d routes, model %d prefixes", len(dump), len(keys))
	}
	for i, p := range keys {
		if dump[i] != m.best(p) {
			return fmt.Errorf("Dump[%d] = %v, model best of %s %v", i, dump[i], p, m.best(p))
		}
	}
	i := 0
	var err error
	tb.WalkAll(func(p netaddr.Prefix, cs []*Route) bool {
		if i >= len(keys) || p != keys[i] || !slices.Equal(cs, m[p]) {
			err = fmt.Errorf("WalkAll visit %d: %s %v, model %v", i, p, cs, m[p])
			return false
		}
		i++
		return true
	})
	if err != nil {
		return err
	}
	if i != len(keys) {
		return fmt.Errorf("WalkAll visited %d prefixes, model has %d", i, len(keys))
	}
	for _, p := range probes {
		if got, want := tb.Best(p), m.best(p); got != want {
			return fmt.Errorf("Best(%s) = %v, model %v", p, got, want)
		}
		if got, want := tb.CoveringBest(p), m.covering(p); got != want {
			return fmt.Errorf("CoveringBest(%s) = %v, model %v", p, got, want)
		}
	}
	return nil
}

// trieShape holds t's trie to the node invariant and returns its node
// count: the root is /0; every other node holds a non-empty entry for its
// own prefix or has two children; each child's prefix is longer than its
// parent's, covered by it, sits under the parent's bit at the parent's
// length, and has the length the parent's lens records for it; and there
// are at most 2 × Prefixes() + 1 nodes.
func trieShape(t *Table) (int, error) {
	if t.root.prefix != (netaddr.Prefix{}) {
		return 0, fmt.Errorf("the root is %s, not /0", t.root.prefix)
	}
	nodes := 0
	var walk func(n *node) error
	walk = func(n *node) error {
		nodes++
		if e := n.entry; e != nil && (e.prefix != n.prefix || len(e.candidates) == 0) {
			return fmt.Errorf("node %s holds an entry for %s with %d candidates", n.prefix, e.prefix, len(e.candidates))
		}
		if n != t.root && n.entry == nil && (n.children[0] == nil || n.children[1] == nil) {
			return fmt.Errorf("node %s has no entry and fewer than two children", n.prefix)
		}
		for b, c := range n.children {
			if c == nil {
				continue
			}
			if c.prefix.Bits() <= n.prefix.Bits() || !n.prefix.Covers(c.prefix) || c.prefix.Bit(n.prefix.Bits()) != b {
				return fmt.Errorf("node %s hangs under %s's bit %d", c.prefix, n.prefix, b)
			}
			if int(n.lens[b]) != c.prefix.Bits() {
				return fmt.Errorf("node %s records its child %s as a /%d", n.prefix, c.prefix, n.lens[b])
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return 0, err
	}
	if nodes > 2*t.Prefixes()+1 {
		return 0, fmt.Errorf("%d nodes for %d prefixes", nodes, t.Prefixes())
	}
	return nodes, nil
}

// cloneDifferential builds a source Table from the first half of ops,
// clones it with Clone, then applies the rest to the source, the clone or
// both, checking each side against a model of its own history after every
// op (WalkRange over rangesOf(ops) included).
// With overlay set, the two sides are sibling Overlays over the source —
// the RIBs of two COW clones of one checkpoint — and the source, never
// written again, is held to its own model at the end.
func cloneDifferential(ops []cloneOp, overlay bool) error {
	probes := []netaddr.Prefix{{}}
	for _, op := range ops {
		probes = append(probes, op.prefix(), netaddr.PrefixFrom(op.prefix().Addr(), 32))
	}
	ranges := rangesOf(ops)
	base, m := New(), ribModel{}
	split := len(ops) / 2
	for _, op := range ops[:split] {
		m.apply(base, op)
	}
	ops = ops[split:]
	sides, names := [2]RouteTable{base, base.Clone()}, [2]string{"source", "clone"}
	var frozen ribModel
	if overlay {
		sides, names = [2]RouteTable{NewOverlay(base), NewOverlay(base)}, [2]string{"overlay", "sibling overlay"}
		frozen = m.clone()
	}
	models := [2]ribModel{m, m.clone()}
	check := func(step int) error {
		for s, name := range names {
			if err := models[s].check(sides[s], probes, ranges); err != nil {
				return fmt.Errorf("%s after %d ops past the clone: %w", name, step, err)
			}
		}
		return nil
	}
	if err := check(0); err != nil {
		return err
	}
	for i, op := range ops {
		for s := range sides {
			if side := int(op.Kind>>2) & 3; side == s || side >= 2 {
				models[s].apply(sides[s], op)
			}
		}
		if err := check(i + 1); err != nil {
			return err
		}
	}
	if overlay {
		if err := frozen.check(base, probes, ranges); err != nil {
			return fmt.Errorf("base under the overlays: %w", err)
		}
	}
	return nil
}

// TestTableCloneMatchesModel: a Table and its Clone each behave as a
// model of their own history, whatever is written to either afterwards.
func TestTableCloneMatchesModel(t *testing.T) {
	f := func(ops []cloneOp) bool {
		if err := cloneDifferential(ops, false); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestOverlayCloneMatchesModel is the same property for two overlays
// over one Table, as CloneCOW forks them from a checkpoint: each behaves
// as a model of its own history, and the Table under them as its own.
func TestOverlayCloneMatchesModel(t *testing.T) {
	f := func(ops []cloneOp) bool {
		if err := cloneDifferential(ops, true); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzTableClone runs both clone differentials over op bytes.
func FuzzTableClone(f *testing.F) {
	// Two peers on nested, adjacent prefixes, cloned; then a third peer
	// on the first of them, on the clone only.
	f.Add([]byte{0, 0x11, 8, 0, 0, 0x11, 9, 1, 0, 0x11, 8, 1, 0, 0x12, 12, 0, 4, 0x11, 8, 2, 4, 0x12, 12, 2})
	f.Add([]byte{0, 0, 0, 7, 0, 0x80, 1, 8, 3, 0, 0, 0, 7, 0, 0, 1, 2, 0x80, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeCloneOps(data)
		if err := cloneDifferential(ops, false); err != nil {
			t.Fatalf("Table: %v", err)
		}
		if err := cloneDifferential(ops, true); err != nil {
			t.Fatalf("Overlay: %v", err)
		}
	})
}

// TestWalkRangeStops: fn returning false ends the walk on both tables.
func TestWalkRangeStops(t *testing.T) {
	base, m := New(), ribModel{}
	for a := uint8(0); a < 8; a++ {
		m.apply(base, cloneOp{Addr: a << 4, Bits: 8})
	}
	for _, tb := range []RouteTable{base, NewOverlay(base)} {
		visits := 0
		tb.WalkRange(0, 0xffffffff, 32, func(*Route) bool {
			visits++
			return visits < 3
		})
		if visits != 3 {
			t.Errorf("%T: %d visits after fn returned false on the third", tb, visits)
		}
	}
}

// TestTableNodesTrackLiveTable: a full table costs at most two nodes per
// prefix plus the root, and withdrawing every route, one by one or by
// WithdrawPeer, leaves only the root; a clone taken before the
// withdrawals still holds the whole table.
func TestTableNodesTrackLiveTable(t *testing.T) {
	routes := traceRoutes(20000)
	sorted := slices.Clone(routes)
	slices.SortFunc(sorted, func(a, b *Route) int { return a.Prefix.Compare(b.Prefix) })
	for _, byPeer := range []bool{false, true} {
		tb := New()
		for _, r := range routes {
			tb.Insert(r)
		}
		nodes, err := trieShape(tb)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d prefixes in %d nodes", tb.Prefixes(), nodes)
		frozen := tb.Clone()
		if byPeer {
			tb.WithdrawPeer(routes[0].PeerRouterID)
		} else {
			for _, r := range routes {
				tb.Withdraw(r.Prefix, r.PeerRouterID)
			}
		}
		if nodes, err := trieShape(tb); err != nil || nodes != 1 || tb.Prefixes() != 0 || tb.Routes() != 0 {
			t.Errorf("WithdrawPeer %v: %d nodes (%v), %d prefixes and %d routes left, want the root alone", byPeer, nodes, err, tb.Prefixes(), tb.Routes())
		}
		if _, err := trieShape(frozen); err != nil {
			t.Errorf("the clone: %v", err)
		}
		if !slices.Equal(frozen.Dump(), sorted) {
			t.Errorf("WithdrawPeer %v: the clone taken before the withdrawals lost routes", byPeer)
		}
	}
}

// loadTable returns a table of n /24s, one route each.
func loadTable(n int) *Table {
	tb := New()
	for i := 0; i < n; i++ {
		tb.Insert(&Route{
			Prefix:       netaddr.PrefixFrom(netaddr.Addr(0x0A000000+uint32(i)<<8), 24),
			PeerRouterID: netaddr.AddrFrom4(10, 0, 0, 1),
			PeerAS:       65001,
			EBGP:         true,
		})
	}
	return tb
}

// TestTableCloneIsConstant: Table.Clone allocates the same, and at most
// two objects, at 1k and at 100k prefixes: it shares the root.
func TestTableCloneIsConstant(t *testing.T) {
	const bound = 2
	for _, n := range []int{1000, 100000} {
		tb := loadTable(n)
		var c *Table
		if got := testing.AllocsPerRun(10, func() { c = tb.Clone() }); got > bound {
			t.Errorf("Clone of %d prefixes allocates %v objects, want ≤ %d", n, got, bound)
		}
		if c.Prefixes() != n || c.Routes() != n {
			t.Errorf("the clone holds %d routes over %d prefixes, want %d over %d", c.Routes(), c.Prefixes(), n, n)
		}
	}
}

var cloneSink *Table

func BenchmarkTableClone(b *testing.B) {
	for _, n := range []int{1000, 20000, 100000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			tb := loadTable(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cloneSink = tb.Clone()
			}
		})
	}
}

package rib

import (
	"sort"

	"dice/internal/netaddr"
)

// RouteTable is the routing-table interface the router programs against.
// *Table (the real Loc-RIB) and *Overlay (a copy-on-write view used by
// exploration clones) both implement it.
type RouteTable interface {
	Insert(r *Route) Change
	Withdraw(p netaddr.Prefix, peerRouterID netaddr.Addr) Change
	WithdrawPeer(peerRouterID netaddr.Addr) []Change
	Best(p netaddr.Prefix) *Route
	Candidates(p netaddr.Prefix) []*Route
	CoveringBest(p netaddr.Prefix) *Route
	Walk(fn func(*Route) bool)
	// WalkRange is Walk restricted to the prefixes of at most maxBits
	// bits whose address span meets [lo, hi].
	WalkRange(lo, hi netaddr.Addr, maxBits int, fn func(*Route) bool)
	WalkAll(fn func(p netaddr.Prefix, candidates []*Route) bool)
	Dump() []*Route
	Prefixes() int
	Routes() int
}

var (
	_ RouteTable = (*Table)(nil)
	_ RouteTable = (*Overlay)(nil)
)

// Overlay is a copy-on-write view over an immutable base Table: reads
// fall through to the base; the first write to a prefix copies its
// candidate set into a private entry. This is the fork()-COW analogue
// that makes exploration clones O(1) to create regardless of table size —
// the property the paper's §4.1 overhead numbers depend on.
//
// The private entries live in a map keyed by prefix, so a first write
// costs one entry (and a candidate slice past two candidates) whatever
// the prefix length.
// An entry left with no candidates shadows the base's: the prefix was
// withdrawn in the overlay.
//
// The base MUST NOT be mutated while overlays over it are alive (DiCE
// freezes the checkpoint router for exactly this reason).
type Overlay struct {
	base    *Table
	entries map[netaddr.Prefix]*entry // nil until the first write
	lens    uint64                    // bit b set once entries holds a /b

	dPrefixes int // prefix-count delta vs base
	dRoutes   int // route-count delta vs base
}

// NewOverlay creates a COW view over base.
func NewOverlay(base *Table) *Overlay {
	return &Overlay{base: base}
}

// own returns the private entry for p, copying the base's candidate set
// into it on first use (the routes themselves are shared: see Route).
func (o *Overlay) own(p netaddr.Prefix) *entry {
	if e, ok := o.entries[p]; ok {
		return e
	}
	if o.entries == nil {
		o.entries = make(map[netaddr.Prefix]*entry)
	}
	var (
		candidates []*Route
		best       *Route
	)
	if n := o.base.find(p); n != nil && n.entry != nil {
		candidates, best = n.entry.candidates, n.entry.best
	}
	e := newEntry(p, 0, candidates, best)
	o.entries[p] = e
	o.lens |= 1 << p.Bits()
	return e
}

// Insert implements RouteTable.
func (o *Overlay) Insert(r *Route) Change {
	e := o.own(r.Prefix)
	old := e.best
	if len(e.candidates) == 0 {
		o.dPrefixes++
	}
	if e.insert(r) {
		o.dRoutes++
	}
	return Change{Prefix: r.Prefix, Old: old, New: e.best}
}

// Withdraw implements RouteTable.
func (o *Overlay) Withdraw(p netaddr.Prefix, peerRouterID netaddr.Addr) Change {
	return o.withdraw(o.own(p), peerRouterID)
}

func (o *Overlay) withdraw(e *entry, peerRouterID netaddr.Addr) Change {
	old := e.best
	if e.withdraw(peerRouterID) {
		o.dRoutes--
		if len(e.candidates) == 0 {
			o.dPrefixes--
		}
	}
	return Change{Prefix: e.prefix, Old: old, New: e.best}
}

// WithdrawPeer implements RouteTable. It owns every base prefix carrying
// a route from the peer first (rare on clones: sessions do not flap
// during a single exploration run), then withdraws in prefix order.
func (o *Overlay) WithdrawPeer(peerRouterID netaddr.Addr) []Change {
	o.base.WalkAll(func(p netaddr.Prefix, candidates []*Route) bool {
		for _, c := range candidates {
			if c.PeerRouterID == peerRouterID && !c.Local {
				o.own(p)
				break
			}
		}
		return true
	})
	var changes []Change
	for _, e := range o.sorted() {
		if ch := o.withdraw(e, peerRouterID); ch.Changed() {
			changes = append(changes, ch)
		}
	}
	return changes
}

// sorted returns the private entries in prefix order.
func (o *Overlay) sorted() []*entry {
	out := make([]*entry, 0, len(o.entries))
	for _, e := range o.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].prefix.Compare(out[j].prefix) < 0 })
	return out
}

// Best implements RouteTable.
func (o *Overlay) Best(p netaddr.Prefix) *Route {
	if e, ok := o.entries[p]; ok {
		return e.best
	}
	return o.base.Best(p)
}

// Candidates implements RouteTable.
func (o *Overlay) Candidates(p netaddr.Prefix) []*Route {
	if e, ok := o.entries[p]; ok {
		return append([]*Route(nil), e.candidates...)
	}
	return o.base.Candidates(p)
}

// CoveringBest implements RouteTable: the longest covering prefix with a
// best route. One walk down the base trie collects the base's answer at
// every length; the private entries are consulted only at the lengths
// they hold, and override the base where they exist.
func (o *Overlay) CoveringBest(p netaddr.Prefix) *Route {
	var along [33]*Route
	o.base.bestsAlong(p, &along)
	for bits := p.Bits(); bits >= 0; bits-- {
		if o.lens&(1<<bits) != 0 {
			if e, ok := o.entries[netaddr.PrefixFrom(p.Addr(), bits)]; ok {
				if e.best != nil {
					return e.best
				}
				continue
			}
		}
		if along[bits] != nil {
			return along[bits]
		}
	}
	return nil
}

// WalkAll implements RouteTable: base entries (minus the overlay's own)
// merged with the overlay's non-empty entries, in prefix order.
func (o *Overlay) WalkAll(fn func(p netaddr.Prefix, candidates []*Route) bool) {
	var merged []entry
	o.base.WalkAll(func(p netaddr.Prefix, c []*Route) bool {
		if _, ok := o.entries[p]; !ok {
			merged = append(merged, entry{prefix: p, candidates: c})
		}
		return true
	})
	for _, e := range o.entries {
		if len(e.candidates) > 0 {
			merged = append(merged, *e)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].prefix.Compare(merged[j].prefix) < 0 })
	for _, e := range merged {
		if !fn(e.prefix, e.candidates) {
			return
		}
	}
}

// Walk implements RouteTable (best routes in prefix order).
func (o *Overlay) Walk(fn func(*Route) bool) {
	o.WalkAll(func(p netaddr.Prefix, _ []*Route) bool {
		if best := o.Best(p); best != nil {
			return fn(best)
		}
		return true
	})
}

// WalkRange implements RouteTable: Walk, filtered.
func (o *Overlay) WalkRange(lo, hi netaddr.Addr, maxBits int, fn func(*Route) bool) {
	o.Walk(func(r *Route) bool {
		return !inRange(r.Prefix, lo, hi, maxBits) || fn(r)
	})
}

// Dump implements RouteTable.
func (o *Overlay) Dump() []*Route {
	var out []*Route
	o.Walk(func(r *Route) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Prefixes implements RouteTable.
func (o *Overlay) Prefixes() int { return o.base.Prefixes() + o.dPrefixes }

// Routes implements RouteTable.
func (o *Overlay) Routes() int { return o.base.Routes() + o.dRoutes }

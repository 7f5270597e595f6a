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
// candidate set into a private table. This is the fork()-COW analogue
// that makes exploration clones O(1) to create regardless of table size —
// the property the paper's §4.1 overhead numbers depend on.
//
// The base MUST NOT be mutated while overlays over it are alive (DiCE
// freezes the checkpoint router for exactly this reason).
type Overlay struct {
	base  *Table
	local *Table
	owned map[netaddr.Prefix]bool

	dPrefixes int // prefix-count delta vs base
	dRoutes   int // route-count delta vs base
}

// NewOverlay creates a COW view over base.
func NewOverlay(base *Table) *Overlay {
	return &Overlay{
		base:  base,
		local: New(),
		owned: make(map[netaddr.Prefix]bool),
	}
}

// own copies the base candidate set for p into the private table (once).
func (o *Overlay) own(p netaddr.Prefix) {
	if o.owned[p] {
		return
	}
	o.owned[p] = true
	for _, c := range o.base.Candidates(p) {
		// Candidates returns a fresh slice; the routes themselves are
		// shared (they are immutable once inserted).
		o.local.Insert(c)
	}
}

// Insert implements RouteTable.
func (o *Overlay) Insert(r *Route) Change {
	o.own(r.Prefix)
	beforeP, beforeR := o.local.Prefixes(), o.local.Routes()
	ch := o.local.Insert(r)
	o.dPrefixes += o.local.Prefixes() - beforeP
	o.dRoutes += o.local.Routes() - beforeR
	return ch
}

// Withdraw implements RouteTable.
func (o *Overlay) Withdraw(p netaddr.Prefix, peerRouterID netaddr.Addr) Change {
	o.own(p)
	beforeP, beforeR := o.local.Prefixes(), o.local.Routes()
	ch := o.local.Withdraw(p, peerRouterID)
	o.dPrefixes += o.local.Prefixes() - beforeP
	o.dRoutes += o.local.Routes() - beforeR
	return ch
}

// WithdrawPeer implements RouteTable. It owns every base prefix carrying
// a route from the peer first (rare on clones: sessions do not flap
// during a single exploration run).
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
	beforeP, beforeR := o.local.Prefixes(), o.local.Routes()
	chs := o.local.WithdrawPeer(peerRouterID)
	o.dPrefixes += o.local.Prefixes() - beforeP
	o.dRoutes += o.local.Routes() - beforeR
	return chs
}

// Best implements RouteTable.
func (o *Overlay) Best(p netaddr.Prefix) *Route {
	if o.owned[p] {
		return o.local.Best(p)
	}
	return o.base.Best(p)
}

// Candidates implements RouteTable.
func (o *Overlay) Candidates(p netaddr.Prefix) []*Route {
	if o.owned[p] {
		return o.local.Candidates(p)
	}
	return o.base.Candidates(p)
}

// CoveringBest implements RouteTable: the longest covering prefix with a
// best route, consulting the owned set per candidate prefix length.
func (o *Overlay) CoveringBest(p netaddr.Prefix) *Route {
	for bits := p.Bits(); bits >= 0; bits-- {
		q := netaddr.PrefixFrom(p.Addr(), bits)
		if r := o.Best(q); r != nil {
			return r
		}
	}
	return nil
}

// WalkAll implements RouteTable: base entries (minus owned) merged with
// local entries, in prefix order.
func (o *Overlay) WalkAll(fn func(p netaddr.Prefix, candidates []*Route) bool) {
	type entry struct {
		p netaddr.Prefix
		c []*Route
	}
	var merged []entry
	o.base.WalkAll(func(p netaddr.Prefix, c []*Route) bool {
		if !o.owned[p] {
			merged = append(merged, entry{p, c})
		}
		return true
	})
	o.local.WalkAll(func(p netaddr.Prefix, c []*Route) bool {
		merged = append(merged, entry{p, c})
		return true
	})
	sort.Slice(merged, func(i, j int) bool { return merged[i].p.Compare(merged[j].p) < 0 })
	for _, e := range merged {
		if !fn(e.p, e.c) {
			return
		}
	}
}

// Walk implements RouteTable (best routes in prefix order).
func (o *Overlay) Walk(fn func(*Route) bool) {
	o.WalkAll(func(p netaddr.Prefix, candidates []*Route) bool {
		var best *Route
		if o.owned[p] {
			best = o.local.Best(p)
		} else {
			best = o.base.Best(p)
		}
		if best != nil {
			return fn(best)
		}
		return true
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

// Package rib implements the Routing Information Bases of a BGP speaker:
// per-peer Adj-RIB-In tables and the Loc-RIB with the RFC 4271 §9.1
// decision process. Prefix storage is a binary radix trie, so exact
// lookups, longest-prefix matches and covered/covering scans are all
// O(prefix length).
package rib

import (
	"fmt"
	"strings"

	"dice/internal/bgp"
	"dice/internal/netaddr"
)

// Route is one path to a prefix as learned from a peer (or injected
// locally).
//
// A route is immutable once inserted; its attribute slices are only
// read. Every table that holds it — the live Loc-RIB, a checkpoint
// (Table.Clone), an exploration overlay (Overlay.own), a witness shadow —
// shares the one value, and a change to a route is a new Route that
// replaces it (the implicit withdraw of Insert).
type Route struct {
	Prefix netaddr.Prefix
	Attrs  bgp.Attrs

	// Peer identity for the decision process and implicit withdraws.
	PeerRouterID netaddr.Addr
	PeerAS       uint16
	EBGP         bool

	// Local marks routes originated by this router (static/network
	// statements); they win over learned routes.
	Local bool
}

// OriginAS returns the AS that originated this route: the rightmost AS of
// the AS_PATH, or the local AS marker 0 for locally originated routes.
func (r *Route) OriginAS() uint16 { return r.Attrs.ASPath.OriginAS() }

// String renders the route like a routing table line.
func (r *Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s via %s", r.Prefix, r.Attrs.NextHop)
	fmt.Fprintf(&b, " as-path [%s]", r.Attrs.ASPath)
	fmt.Fprintf(&b, " origin %s", bgp.OriginString(r.Attrs.Origin))
	if r.Attrs.HasLocalPref {
		fmt.Fprintf(&b, " local-pref %d", r.Attrs.LocalPref)
	}
	if r.Attrs.HasMED {
		fmt.Fprintf(&b, " med %d", r.Attrs.MED)
	}
	return b.String()
}

// node is a binary radix-trie node. Entries live at the node whose depth
// equals the prefix length.
type node struct {
	children [2]*node
	entry    *entry
}

// entry keeps all candidate routes for one prefix plus the selected best.
// Table stores entries in its trie and Overlay in its map; both mutate
// them only through insert and withdraw.
type entry struct {
	prefix     netaddr.Prefix
	candidates []*Route
	best       *Route
}

// insert adds r — or replaces the candidate from the same source, the
// implicit withdraw of RFC 4271 §3.1 — and reruns selection. It reports
// whether the candidate count grew.
func (e *entry) insert(r *Route) (added bool) {
	added = true
	for i, c := range e.candidates {
		if sameSource(c, r) {
			e.candidates[i] = r
			added = false
			break
		}
	}
	if added {
		e.candidates = append(e.candidates, r)
	}
	e.selectBest()
	return added
}

// withdraw removes the route learned from the peer, if any, and reruns
// selection (best is nil once no candidate is left). It reports whether a
// candidate was removed.
func (e *entry) withdraw(peerRouterID netaddr.Addr) (removed bool) {
	for i, c := range e.candidates {
		if c.PeerRouterID == peerRouterID && !c.Local {
			e.candidates = append(e.candidates[:i], e.candidates[i+1:]...)
			removed = true
			break
		}
	}
	e.selectBest()
	return removed
}

// Table is a Loc-RIB: all candidate routes per prefix with best-path
// selection. Not safe for concurrent use; the router serializes access.
type Table struct {
	root     *node
	nodes    int // trie nodes, root included; nodes are never pruned
	prefixes int // number of prefixes with at least one candidate
	routes   int // total candidate routes
}

// New creates an empty table.
func New() *Table {
	return &Table{root: &node{}, nodes: 1}
}

// Prefixes returns the number of distinct prefixes present.
func (t *Table) Prefixes() int { return t.prefixes }

// Routes returns the total number of candidate routes.
func (t *Table) Routes() int { return t.routes }

// find walks to the node for p, optionally creating missing nodes.
func (t *Table) find(p netaddr.Prefix, create bool) *node {
	n := t.root
	for i := 0; i < p.Bits(); i++ {
		b := p.Bit(i)
		if n.children[b] == nil {
			if !create {
				return nil
			}
			n.children[b] = &node{}
			t.nodes++
		}
		n = n.children[b]
	}
	return n
}

// Clone returns an independent copy of the table: the trie copied node
// for node in one pre-order pass, each node, entry and candidate list
// written into one of three slices sized exactly by the counters, so a
// clone is four allocations whatever the table size. Best routes and
// candidate order are copied as they are, not reselected; the routes
// themselves are shared (see Route). Each copied candidate list is
// clipped to its own length, so an insert on the clone reallocates it
// rather than writing into the next prefix's candidates.
func (t *Table) Clone() *Table {
	s := slabs{
		nodes:   make([]node, t.nodes),
		entries: make([]entry, t.prefixes),
		routes:  make([]*Route, t.routes),
	}
	return &Table{root: s.copy(t.root), nodes: t.nodes, prefixes: t.prefixes, routes: t.routes}
}

// slabs is what is left of Clone's three slices; copy takes from their
// fronts.
type slabs struct {
	nodes   []node
	entries []entry
	routes  []*Route
}

// copy copies the subtrie at n into the slabs and returns its root.
func (s *slabs) copy(n *node) *node {
	c := &s.nodes[0]
	s.nodes = s.nodes[1:]
	if e := n.entry; e != nil {
		k := len(e.candidates)
		ce := &s.entries[0]
		s.entries = s.entries[1:]
		*ce = entry{prefix: e.prefix, candidates: s.routes[:k:k], best: e.best}
		copy(ce.candidates, e.candidates)
		s.routes = s.routes[k:]
		c.entry = ce
	}
	for b, child := range n.children {
		if child != nil {
			c.children[b] = s.copy(child)
		}
	}
	return c
}

// Change describes the effect of an insert/withdraw on the best route.
type Change struct {
	Prefix   netaddr.Prefix
	Old, New *Route // nil means no best route before/after
}

// Changed reports whether the best route actually changed.
func (c Change) Changed() bool { return c.Old != c.New }

// Insert adds (or replaces — the implicit withdraw of RFC 4271 §3.1) the
// route from the given peer and reruns selection for the prefix.
func (t *Table) Insert(r *Route) Change {
	n := t.find(r.Prefix, true)
	if n.entry == nil {
		n.entry = &entry{prefix: r.Prefix}
		t.prefixes++
	}
	e := n.entry
	old := e.best
	if e.insert(r) {
		t.routes++
	}
	return Change{Prefix: r.Prefix, Old: old, New: e.best}
}

// Withdraw removes the route for p learned from the given peer.
func (t *Table) Withdraw(p netaddr.Prefix, peerRouterID netaddr.Addr) Change {
	n := t.find(p, false)
	if n == nil || n.entry == nil {
		return Change{Prefix: p}
	}
	e := n.entry
	old := e.best
	if e.withdraw(peerRouterID) {
		t.routes--
	}
	if len(e.candidates) == 0 {
		n.entry = nil
		t.prefixes--
	}
	return Change{Prefix: p, Old: old, New: e.best}
}

// WithdrawPeer removes every route learned from a peer (session down).
// It returns the changes for prefixes whose best route changed.
func (t *Table) WithdrawPeer(peerRouterID netaddr.Addr) []Change {
	var changes []Change
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if e := n.entry; e != nil {
			old := e.best
			if e.withdraw(peerRouterID) {
				t.routes--
			}
			if len(e.candidates) == 0 {
				n.entry = nil
				t.prefixes--
			}
			if e.best != old {
				changes = append(changes, Change{Prefix: e.prefix, Old: old, New: e.best})
			}
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(t.root)
	return changes
}

// sameSource reports whether two candidates come from the same source and
// therefore replace one another.
func sameSource(a, b *Route) bool {
	if a.Local != b.Local {
		return false
	}
	if a.Local {
		return true
	}
	return a.PeerRouterID == b.PeerRouterID
}

// Best returns the selected route for exactly prefix p, or nil.
func (t *Table) Best(p netaddr.Prefix) *Route {
	n := t.find(p, false)
	if n == nil || n.entry == nil {
		return nil
	}
	return n.entry.best
}

// Candidates returns all candidate routes for exactly prefix p.
func (t *Table) Candidates(p netaddr.Prefix) []*Route {
	n := t.find(p, false)
	if n == nil || n.entry == nil {
		return nil
	}
	return append([]*Route(nil), n.entry.candidates...)
}

// CoveringBest returns the best route for the longest prefix that covers p
// (including p itself), or nil.
func (t *Table) CoveringBest(p netaddr.Prefix) *Route {
	n := t.root
	var last *Route
	for i := 0; ; i++ {
		if n.entry != nil && n.entry.best != nil {
			last = n.entry.best
		}
		if i >= p.Bits() {
			break
		}
		b := p.Bit(i)
		if n.children[b] == nil {
			break
		}
		n = n.children[b]
	}
	return last
}

// bestsAlong sets along[i] to the best route of p's covering /i, for
// every i ≤ p.Bits() at which the table holds one.
func (t *Table) bestsAlong(p netaddr.Prefix, along *[33]*Route) {
	n := t.root
	for i := 0; ; i++ {
		if n.entry != nil {
			along[i] = n.entry.best
		}
		if i >= p.Bits() {
			return
		}
		if n = n.children[p.Bit(i)]; n == nil {
			return
		}
	}
}

// Walk visits the best route of every prefix in address order.
func (t *Table) Walk(fn func(*Route) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n == nil {
			return true
		}
		if n.entry != nil && n.entry.best != nil {
			if !fn(n.entry.best) {
				return false
			}
		}
		return walk(n.children[0]) && walk(n.children[1])
	}
	walk(t.root)
}

// WalkAll visits every prefix with its full candidate set in trie
// (address) order — used by checkpoint serialization, which needs the
// complete state, not just selected routes.
func (t *Table) WalkAll(fn func(p netaddr.Prefix, candidates []*Route) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n == nil {
			return true
		}
		if n.entry != nil && len(n.entry.candidates) > 0 {
			if !fn(n.entry.prefix, n.entry.candidates) {
				return false
			}
		}
		return walk(n.children[0]) && walk(n.children[1])
	}
	walk(t.root)
}

// Dump returns all best routes sorted by prefix. The trie walk already
// visits them in Prefix.Compare order — pre-order is address first, and a
// prefix sits above every longer one sharing its address — so there is
// nothing to sort.
func (t *Table) Dump() []*Route {
	out := make([]*Route, 0, t.prefixes)
	t.Walk(func(r *Route) bool {
		out = append(out, r)
		return true
	})
	return out
}

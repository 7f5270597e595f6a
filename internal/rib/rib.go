// Package rib implements the Routing Information Bases of a BGP speaker:
// per-peer Adj-RIB-In tables and the Loc-RIB with the RFC 4271 §9.1
// decision process. Prefix storage is a path-compressed (PATRICIA)
// trie: it holds a node only where a prefix has an entry or where two
// subtries branch, plus the root /0, so a table of n prefixes has at most
// 2n+1 nodes and exact lookups, longest-prefix matches and
// covered/covering scans are all O(branch depth), the number of such
// nodes on the way down, never more than the prefix length.
//
// The trie is persistent. Table.Clone is O(1) whatever the table size:
// the clone shares the source's root, and each side copies a path the
// first time it writes it afterwards (edit tokens; see Table). A
// checkpoint of a live node is such a clone, taken like fork() in the
// time it takes to allocate one Table. Overlay is the other way to fork a
// table: a copy-on-write map of private entries over a frozen base, the
// exploration clone.
package rib

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"

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
// replaces it (the implicit withdraw of Insert). The same rule, one level
// up: a trie node or entry, which a Table shares with its clones, is
// written only by the table whose edit token it carries.
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

// node is a trie node for its own prefix. The trie keeps the invariant
// that every node but the root /0 holds an entry or has two children; a
// child's prefix is longer than its parent's, covered by it, and hangs
// under the parent's bit at the parent's length (slot). lens holds each
// child's prefix length, so a descent knows which bit of the key picks
// the next child without first reading the child's own prefix. edit is
// the token of the table that created it (see Table.edit); only that
// table writes it, and only until its next Clone.
type node struct {
	prefix   netaddr.Prefix
	lens     [2]uint8
	children [2]*node
	entry    *entry
	edit     uint64
}

// set hangs c (nil for none) under n at index b.
func (n *node) set(b int, c *node) {
	n.children[b] = c
	if c != nil {
		n.lens[b] = uint8(c.prefix.Bits())
	}
}

// slot is the index of n's child whose subtrie holds p, a prefix longer
// than n's and covered by it.
func (n *node) slot(p netaddr.Prefix) int { return p.Bit(n.prefix.Bits()) }

// collapse returns what takes n's place under its parent once n may have
// lost its entry or a child: n itself while it holds an entry, has two
// children or is the root, else its only child, or nil.
func (n *node) collapse() *node {
	switch {
	case n.entry != nil || n.prefix.Bits() == 0 || n.children[0] != nil && n.children[1] != nil:
		return n
	case n.children[0] != nil:
		return n.children[0]
	}
	return n.children[1]
}

// commonBits returns the length of the longest prefix covering both a and
// b.
func commonBits(a, b netaddr.Prefix) int {
	return min(a.Bits(), b.Bits(), bits.LeadingZeros32(uint32(a.Addr()^b.Addr())))
}

// entry keeps all candidate routes for one prefix plus the selected best.
// Table stores entries in its trie and Overlay in its map; both mutate
// them only through insert and withdraw, and a Table only the entries
// that carry its edit token (an Overlay's carry none: 0 is no table's).
//
// Almost every prefix holds one or two candidates, so candidates starts
// out in the entry's own slots and moves to the heap only past them. An
// entry is therefore never copied by value to be written: newEntry
// points the copy's candidates at its own slots.
type entry struct {
	prefix     netaddr.Prefix
	candidates []*Route
	slots      [2]*Route
	best       *Route
	edit       uint64
}

// newEntry returns an entry for p carrying edit, holding a copy of
// candidates (in its slots when they fit) and best.
func newEntry(p netaddr.Prefix, edit uint64, candidates []*Route, best *Route) *entry {
	e := &entry{prefix: p, best: best, edit: edit}
	if len(candidates) <= len(e.slots) {
		e.candidates = append(e.slots[:0], candidates...)
	} else {
		e.candidates = append(make([]*Route, 0, len(candidates)+1), candidates...)
	}
	return e
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

// learnedFrom returns the index of the candidate learned from the peer,
// or -1.
func (e *entry) learnedFrom(peerRouterID netaddr.Addr) int {
	for i, c := range e.candidates {
		if c.PeerRouterID == peerRouterID && !c.Local {
			return i
		}
	}
	return -1
}

// withdraw removes the route learned from the peer, if any, and reruns
// selection (best is nil once no candidate is left). It reports whether a
// candidate was removed.
func (e *entry) withdraw(peerRouterID netaddr.Addr) (removed bool) {
	if i := e.learnedFrom(peerRouterID); i >= 0 {
		e.candidates = append(e.candidates[:i], e.candidates[i+1:]...)
		removed = true
	}
	e.selectBest()
	return removed
}

// Table is a Loc-RIB: all candidate routes per prefix with best-path
// selection. Not safe for concurrent use; the router serializes access.
// A frozen table (one nothing writes any more, such as a checkpoint) may
// be read and cloned from any number of goroutines at once.
//
// The trie is path-compressed (see node): an insert adds at most two
// nodes, a prefix and the branch point above it, and a withdrawal that
// empties a prefix prunes what the invariant no longer allows, so the
// node count tracks the live table, not its history.
//
// The trie is persistent: Clone shares the root, and a write copies the
// nodes on its path that the table does not own before it changes them.
// Ownership is an edit token: every node and entry carries the token of
// the table that made it, every Clone hands both tables fresh ones, and
// a table writes only what carries its current token. So after a Clone
// neither side owns anything; each copies what it writes, once, and
// writes its copies in place from then on.
type Table struct {
	root     *node
	edit     atomic.Uint64 // this table's token; Clone replaces it
	prefixes int           // number of prefixes with at least one candidate
	routes   int           // total candidate routes
}

// edits issues edit tokens; 0 is never issued.
var edits atomic.Uint64

// New creates an empty table.
func New() *Table {
	t := &Table{}
	t.edit.Store(edits.Add(1))
	t.root = &node{edit: t.edit.Load()}
	return t
}

// Prefixes returns the number of distinct prefixes present.
func (t *Table) Prefixes() int { return t.prefixes }

// Routes returns the total number of candidate routes.
func (t *Table) Routes() int { return t.routes }

// find returns the node for p, or nil. The descent stops at the first
// node that does not cover p: nothing below it does either. Like every
// descent it carries the next node's length from its parent's lens.
func (t *Table) find(p netaddr.Prefix) *node {
	n, bits := t.root, 0
	for bits < p.Bits() {
		b := p.Bit(bits)
		if n, bits = n.children[b], int(n.lens[b]); n == nil || !n.prefix.Covers(p) {
			return nil
		}
	}
	return n
}

// path returns the node for p, writable by t, with its parent and
// grandparent (nil above the root), both writable too: each node on the
// way that t does not own is replaced by a copy it does. Where the child
// to descend into does not cover p, a new node at their common length
// takes its place and the child hangs under it: that node is p itself
// when p covers the child, else a branch point, under which p's own node
// is created next. The shared child is only re-pointed, never written. A
// child pointer is stored only where it changes, so a path t already
// owns costs no pointer writes.
func (t *Table) path(p netaddr.Prefix) (n, parent, grand *node) {
	edit := t.edit.Load()
	if t.root.edit != edit {
		t.root = t.root.owned(edit)
	}
	n = t.root
	for n.prefix.Bits() < p.Bits() {
		b := n.slot(p)
		c := n.children[b]
		switch {
		case c == nil:
			c = &node{prefix: p, edit: edit}
		case !c.prefix.Covers(p):
			k := commonBits(c.prefix, p)
			m := &node{prefix: netaddr.PrefixFrom(p.Addr(), k), edit: edit}
			m.set(c.prefix.Bit(k), c)
			c = m
		case c.edit != edit:
			c = c.owned(edit)
		}
		if n.children[b] != c {
			n.set(b, c)
		}
		n, parent, grand = c, n, parent
	}
	return n, parent, grand
}

// owned returns n if it carries edit, else a copy of n that does, sharing
// n's children and entry.
func (n *node) owned(edit uint64) *node {
	if n.edit == edit {
		return n
	}
	c := *n
	c.edit = edit
	return &c
}

// ownEntry returns n's entry writable by the table whose token n carries
// (n's own, or a copy n now points at). The copy gets its own candidate
// slice: insert writes a slot in place and withdraw shifts in place, so
// a candidate list is never shared between writers.
func (n *node) ownEntry() *entry {
	e := n.entry
	if e.edit != n.edit {
		e = newEntry(e.prefix, n.edit, e.candidates, e.best)
		n.entry = e
	}
	return e
}

// Clone returns an independent copy of the table in O(1): both tables
// get fresh edit tokens and share the root, so neither owns a node the
// other can reach, and each copies a path the first time it writes it
// (see Table). Best routes and candidate order are the source's, not
// reselected; the routes themselves are shared (see Route). A frozen
// table may be cloned from several goroutines at once.
func (t *Table) Clone() *Table {
	c := &Table{root: t.root, prefixes: t.prefixes, routes: t.routes}
	c.edit.Store(edits.Add(1))
	t.edit.Store(edits.Add(1))
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
	n, _, _ := t.path(r.Prefix)
	if n.entry == nil {
		n.entry = newEntry(r.Prefix, n.edit, nil, nil)
		t.prefixes++
	}
	e := n.ownEntry()
	old := e.best
	if e.insert(r) {
		t.routes++
	}
	return Change{Prefix: r.Prefix, Old: old, New: e.best}
}

// Withdraw removes the route for p learned from the given peer. A
// withdrawal of a route the table does not hold writes nothing. One that
// empties p prunes its node, and then its parent, where the node
// invariant no longer allows them.
func (t *Table) Withdraw(p netaddr.Prefix, peerRouterID netaddr.Addr) Change {
	n := t.find(p)
	if n == nil || n.entry == nil {
		return Change{Prefix: p}
	}
	old := n.entry.best
	if n.entry.learnedFrom(peerRouterID) < 0 {
		return Change{Prefix: p, Old: old, New: old}
	}
	n, parent, grand := t.path(p)
	e := n.ownEntry()
	e.withdraw(peerRouterID)
	t.routes--
	if len(e.candidates) == 0 {
		n.entry = nil
		t.prefixes--
		if c := n.collapse(); c != n {
			parent.set(parent.slot(p), c)
			if c := parent.collapse(); c != parent {
				grand.set(grand.slot(parent.prefix), c)
			}
		}
	}
	return Change{Prefix: p, Old: old, New: e.best}
}

// WithdrawPeer removes every route learned from a peer (session down).
// It returns the changes for prefixes whose best route changed, in
// prefix order. Only the paths to prefixes that held such a route are
// copied, and the nodes it empties are pruned on the way back up.
func (t *Table) WithdrawPeer(peerRouterID netaddr.Addr) []Change {
	var changes []Change
	edit := t.edit.Load()
	// walk returns what takes n's place: n, or the copy of n that t owns
	// once anything below it changed, or what collapse leaves of that.
	var walk func(n *node) *node
	walk = func(n *node) *node {
		if n == nil {
			return nil
		}
		if e := n.entry; e != nil && e.learnedFrom(peerRouterID) >= 0 {
			n = n.owned(edit)
			e = n.ownEntry()
			old := e.best
			e.withdraw(peerRouterID)
			t.routes--
			if len(e.candidates) == 0 {
				n.entry = nil
				t.prefixes--
			}
			if e.best != old {
				changes = append(changes, Change{Prefix: e.prefix, Old: old, New: e.best})
			}
		}
		for b, child := range n.children {
			if c := walk(child); c != child {
				n = n.owned(edit)
				n.set(b, c)
			}
		}
		return n.collapse()
	}
	t.root = walk(t.root)
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
	n := t.find(p)
	if n == nil || n.entry == nil {
		return nil
	}
	return n.entry.best
}

// Candidates returns all candidate routes for exactly prefix p.
func (t *Table) Candidates(p netaddr.Prefix) []*Route {
	n := t.find(p)
	if n == nil || n.entry == nil {
		return nil
	}
	return append([]*Route(nil), n.entry.candidates...)
}

// CoveringBest returns the best route for the longest prefix that covers p
// (including p itself), or nil.
func (t *Table) CoveringBest(p netaddr.Prefix) *Route {
	var last *Route
	for n, bits := t.root, 0; ; {
		if n.entry != nil && n.entry.best != nil {
			last = n.entry.best
		}
		if bits == p.Bits() {
			return last
		}
		b := p.Bit(bits)
		if n, bits = n.children[b], int(n.lens[b]); n == nil || !n.prefix.Covers(p) {
			return last
		}
	}
}

// bestsAlong sets along[i] to the best route of p's covering /i, for
// every i ≤ p.Bits() at which the table holds one.
func (t *Table) bestsAlong(p netaddr.Prefix, along *[33]*Route) {
	for n, bits := t.root, 0; ; {
		if n.entry != nil {
			along[bits] = n.entry.best
		}
		if bits == p.Bits() {
			return
		}
		b := p.Bit(bits)
		if n, bits = n.children[b], int(n.lens[b]); n == nil || !n.prefix.Covers(p) {
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

// WalkRange visits, in Walk's order, the best route of every prefix of
// at most maxBits bits whose address span meets [lo, hi] (inRange). A
// subtrie whose node's own prefix fails inRange is skipped whole: every
// prefix in it is longer, and its span lies inside the node's.
func (t *Table) WalkRange(lo, hi netaddr.Addr, maxBits int, fn func(*Route) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n == nil || !inRange(n.prefix, lo, hi, maxBits) {
			return true
		}
		if n.entry != nil && n.entry.best != nil && !fn(n.entry.best) {
			return false
		}
		return walk(n.children[0]) && walk(n.children[1])
	}
	walk(t.root)
}

// inRange is WalkRange's filter: p has at most maxBits bits and its
// address span meets [lo, hi]. An empty range (lo > hi) meets nothing.
func inRange(p netaddr.Prefix, lo, hi netaddr.Addr, maxBits int) bool {
	return p.Bits() <= maxBits && lo <= hi && p.Addr() <= hi && p.Addr()|^netaddr.Mask(p.Bits()) >= lo
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

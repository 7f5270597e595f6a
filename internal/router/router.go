// Package router implements the BGP daemon — the Go equivalent of BIRD's
// BGP implementation that the paper integrates DiCE with. It ties together
// the wire protocol (bgp), routing tables (rib), policy filters (filter)
// and configuration (config) over a netsim transport.
//
// Like the paper's modified BIRD, which builds the concrete and the
// instrumented path from one source into one executable (§3.2), the
// router has one UPDATE pipeline (process): import policy, RIB update,
// best-path propagation, export policy. Normal operation runs it under
// filter.ConcreteBrancher with no instrumentation; DiCE runs the same
// code on checkpoint clones under a recording concolic.RunContext, with
// a scenario's lift (explore.go) marking which filter-subject fields
// carry symbolic inputs.
package router

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"dice/internal/bgp"
	"dice/internal/config"
	"dice/internal/filter"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/rib"
)

// Counters aggregates the router's processing statistics, used by the
// §4.1 throughput experiments.
type Counters struct {
	UpdatesProcessed uint64 // UPDATE messages handled
	RoutesAccepted   uint64 // NLRI accepted by import policy
	RoutesRejected   uint64 // NLRI rejected by import policy
	RoutesWithdrawn  uint64
	UpdatesSent      uint64
}

// peerState couples a configured peer with its live session, and is the
// session's bgp.SessionHooks: one value per peer carries everything the
// session calls back with.
type peerState struct {
	r    *Router
	peer *config.Peer
	sess *bgp.Session
}

// Send implements bgp.SessionHooks: the wire goes to the peer's node.
func (ps *peerState) Send(wire []byte) {
	r := ps.r
	r.counters.UpdatesSent += boolToU64(wire[18] == bgp.MsgUpdate)
	r.transport.Send(r.name, ps.peer.Name, wire)
}

// OnEstablished implements bgp.SessionHooks.
func (ps *peerState) OnEstablished() { ps.r.onEstablished(ps) }

// OnUpdate implements bgp.SessionHooks.
func (ps *peerState) OnUpdate(u *bgp.Update) { ps.r.onUpdate(ps, u) }

// OnDown implements bgp.SessionHooks.
func (ps *peerState) OnDown(string) { ps.r.onDown(ps) }

// Router is one BGP speaker on the virtual network. Methods must be
// called from the netsim event loop goroutine (the simulator is the
// serialization point, mirroring BIRD's single-threaded core).
type Router struct {
	cfg       *config.Config
	name      string
	transport netsim.Transport
	loc       rib.RouteTable
	peers     map[string]*peerState // keyed by peer (node) name
	counters  Counters

	// order holds the peers sorted by name. Every loop whose body sends
	// messages walks peers through it instead of the map: map iteration
	// order would leak into the netsim enqueue sequence — the tie-break
	// between same-timestamp deliveries — and the same witness injected
	// into the same fabric could take a different number of deliveries to
	// converge run to run, which the trace-replay golden harness (and the
	// distributed parity contract on PropagationSteps) cannot tolerate.
	// The peer set is fixed at construction, so the hot callers —
	// propagate on every best-route change, Tick on every timer advance —
	// pay no per-call sort or allocation.
	order []*peerState

	// subj is the filter subject every import and export run lifts the
	// route into (filter.Subject.Lift): one per router, not one per run.
	subj filter.Subject

	// LastObserved retains the most recent UPDATE per peer; DiCE derives
	// its symbolic input templates from these (§2.3 "feeds it with a
	// previously observed input"). lastAnnounced additionally retains the
	// most recent NLRI-carrying UPDATE: scenarios that need an
	// announcement template (update, routeleak) seed from it, so a
	// replayed history that happens to end in a withdraw still leaves a
	// usable seed.
	lastObserved  map[string]*bgp.Update
	lastAnnounced map[string]*bgp.Update
}

// New creates a router from its configuration. name is its netsim node
// name; peers' config names must match their node names.
func New(name string, cfg *config.Config, tr netsim.Transport) *Router {
	r := newRouter(name, cfg, tr, rib.New())
	for _, n := range cfg.Networks {
		r.loc.Insert(&rib.Route{
			Prefix: n,
			Attrs: bgp.Attrs{
				HasOrigin:  true,
				Origin:     bgp.OriginIGP,
				ASPath:     bgp.ASPath{},
				HasNextHop: true,
				NextHop:    cfg.RouterID,
			},
			Local: true,
		})
	}
	return r
}

// newRouter builds a router over loc with a fresh (Idle) session per
// configured peer. Checkpoint clones are built here too, hundreds per
// round, so every map is sized up front and the peer states share one
// allocation.
func newRouter(name string, cfg *config.Config, tr netsim.Transport, loc rib.RouteTable) *Router {
	n := len(cfg.Peers)
	r := &Router{
		cfg:           cfg,
		name:          name,
		transport:     tr,
		loc:           loc,
		peers:         make(map[string]*peerState, n),
		order:         make([]*peerState, n),
		lastObserved:  make(map[string]*bgp.Update, n),
		lastAnnounced: make(map[string]*bgp.Update, n),
	}
	states := make([]peerState, n)
	for i, pc := range cfg.Peers {
		ps := &states[i]
		ps.r, ps.peer = r, pc
		ps.sess = bgp.NewSession(bgp.SessionConfig{
			LocalAS:  cfg.LocalAS,
			PeerAS:   pc.AS,
			RouterID: cfg.RouterID,
			HoldTime: pc.HoldTime,
		}, ps)
		r.peers[pc.Name] = ps
		r.order[i] = ps
	}
	slices.SortFunc(r.order, func(a, b *peerState) int { return strings.Compare(a.peer.Name, b.peer.Name) })
	return r
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Name returns the router's node name.
func (r *Router) Name() string { return r.name }

// Config returns the router's configuration.
func (r *Router) Config() *config.Config { return r.cfg }

// RIB exposes the Loc-RIB (read-only use expected).
func (r *Router) RIB() rib.RouteTable { return r.loc }

// Counters returns a copy of the processing counters.
func (r *Router) Counters() Counters { return r.counters }

// Session returns the session for a peer name (nil if unknown).
func (r *Router) Session(peer string) *bgp.Session {
	if ps, ok := r.peers[peer]; ok {
		return ps.sess
	}
	return nil
}

// LastObserved returns the most recent UPDATE received from peer.
func (r *Router) LastObserved(peer string) *bgp.Update {
	return r.lastObserved[peer]
}

// LastAnnounced returns the most recent NLRI-carrying UPDATE received
// from peer — the seed for scenarios that explore announcements.
func (r *Router) LastAnnounced(peer string) *bgp.Update {
	return r.lastAnnounced[peer]
}

// PeerNameByAddr returns the configured peer whose remote address is a
// ("" if none) — the reverse of the RIB's PeerRouterID provenance, used
// by the federated forward-trace oracle to walk a route back toward the
// neighbor that advertised it.
func (r *Router) PeerNameByAddr(a netaddr.Addr) string {
	for name, ps := range r.peers {
		if ps.peer.Addr == a {
			return name
		}
	}
	return ""
}

// Start begins all peering sessions at virtual time now.
func (r *Router) Start(now time.Time) error {
	for _, ps := range r.order {
		ps.sess.Start(now)
		if err := ps.sess.ConnUp(now); err != nil {
			return fmt.Errorf("router %s: peer %s: %w", r.name, ps.peer.Name, err)
		}
	}
	return nil
}

// Deliver implements netsim.Receiver: bytes arriving from a peer node.
func (r *Router) Deliver(now time.Time, from string, data []byte) {
	ps, ok := r.peers[from]
	if !ok {
		return // not a configured peer; drop
	}
	_ = ps.sess.Recv(now, data) // protocol errors already notified peer
}

// Tick advances all session timers (sorted: a timer firing can emit a
// KEEPALIVE, and emission order is part of the deterministic contract).
func (r *Router) Tick(now time.Time) {
	for _, ps := range r.order {
		ps.sess.Tick(now)
	}
}

// onEstablished announces the current table to the new peer.
func (r *Router) onEstablished(ps *peerState) {
	r.loc.Walk(func(rt *rib.Route) bool {
		var shared [2][]byte
		if wire, ok := r.exportWire(ps, rt, nil, filter.ConcreteBrancher{}, &shared); ok && wire != nil {
			_ = ps.sess.SendUpdateWire(wire)
		}
		return true
	})
}

func (r *Router) onDown(ps *peerState) {
	for _, ch := range r.loc.WithdrawPeer(ps.peer.Addr) {
		r.propagate(ps.peer.Name, ch, nil, filter.ConcreteBrancher{}, nil)
	}
}

// onUpdate is the session's UPDATE hook: normal operation, no
// instrumentation.
func (r *Router) onUpdate(ps *peerState, u *bgp.Update) {
	r.lastObserved[ps.peer.Name] = u
	if len(u.NLRI) > 0 {
		r.lastAnnounced[ps.peer.Name] = u
	}
	r.process(ps.peer.Name, u, nil, filter.ConcreteBrancher{}, nil)
}

// lift marks, on a filter subject built from a route's concrete data,
// the fields that carry an exploration run's symbolic inputs. attrs are
// the attributes the subject was built from; export is false before the
// peer's import filter and true before each export filter, where the
// route is the one import installed. nil in normal operation.
type lift func(subj *filter.Subject, attrs *bgp.Attrs, export bool)

// process is the one UPDATE pipeline — counters, import policy, RIB
// update, propagation, export policy — for the live node and for
// exploration alike. br is the instrumentation seam: ConcreteBrancher in
// normal operation, the run's RunContext during exploration, where lf
// lifts the subjects of the explored route. obs, when non-nil, receives
// what the pipeline observed; explored messages carry one prefix.
func (r *Router) process(from string, u *bgp.Update, lf lift, br filter.Brancher, obs *Outcome) {
	r.counters.UpdatesProcessed++
	ps := r.peers[from]
	for _, w := range u.Withdrawn {
		r.apply(ps, w, nil, lf, br, obs)
	}
	for _, nlri := range u.NLRI {
		r.apply(ps, nlri, &u.Attrs, lf, br, obs)
	}
}

// apply processes one prefix of an UPDATE from a peer: announced with
// attrs, or withdrawn when attrs is nil.
func (r *Router) apply(ps *peerState, prefix netaddr.Prefix, attrs *bgp.Attrs, lf lift, br filter.Brancher, obs *Outcome) {
	var rt *rib.Route // the route to install; nil removes this peer's
	if attrs != nil {
		if final, ok := r.importRoute(ps, prefix, attrs, lf, br); ok {
			r.counters.RoutesAccepted++
			rt = &rib.Route{
				Prefix:       prefix,
				Attrs:        final,
				PeerRouterID: ps.peer.Addr,
				PeerAS:       ps.sess.PeerAS(),
				EBGP:         ps.sess.PeerAS() != r.cfg.LocalAS,
			}
		} else {
			r.counters.RoutesRejected++
		}
	}
	var ch rib.Change
	took := rt != nil // the message took effect on this peer's own route
	if rt != nil {
		ch = r.loc.Insert(rt)
	} else {
		// An explicit withdrawal — or policy rejection of a previously
		// accepted route, which acts as one (the route became ineligible).
		before := r.loc.Routes()
		ch = r.loc.Withdraw(prefix, ps.peer.Addr)
		took = attrs == nil && r.loc.Routes() < before
	}
	if obs != nil {
		obs.Accepted, obs.Change = took, ch
	}
	if !ch.Changed() {
		return
	}
	if attrs == nil {
		r.counters.RoutesWithdrawn++
	}
	if ch.New != rt {
		lf = nil // another candidate took over: its attributes are all concrete
	}
	r.propagate(ps.peer.Name, ch, lf, br, obs)
}

// importRoute is loop check, import filter and verdict for one announced
// prefix: the attributes to install, and whether policy accepted it.
func (r *Router) importRoute(ps *peerState, prefix netaddr.Prefix, attrs *bgp.Attrs, lf lift, br filter.Brancher) (bgp.Attrs, bool) {
	// RFC 4271 §9.1.2: drop paths containing our own AS (loop). The check
	// concerns the path structure, which stays concrete in the DiCE input
	// models.
	if attrs.ASPath.Contains(r.cfg.LocalAS) {
		return bgp.Attrs{}, false
	}
	r.subj.Lift(prefix, attrs)
	if lf != nil {
		lf(&r.subj, attrs, false)
	}
	verdict := filter.Run(policy(ps.peer.Import), &r.subj, br)
	if verdict.Disposition != filter.Accept {
		return bgp.Attrs{}, false
	}
	out := attrs.Clone()
	verdict.Apply(&out)
	return out, true
}

func policy(f *filter.Filter) *filter.Filter {
	if f == nil {
		return filter.AcceptAll
	}
	return f
}

// propagate exports a best-route change to every established peer other
// than the one it came from, in peer-name order — under a recording br
// that is also the order of the export constraints. Every peer gets its
// own export verdict, but the bytes are encoded once per change and
// session kind: all peers whose verdict modifies nothing share one
// encoded announcement, and all peers that get a withdrawal share one.
func (r *Router) propagate(fromPeer string, ch rib.Change, lf lift, br filter.Brancher, obs *Outcome) {
	var shared [2][]byte // ch.New as exported unmodified: iBGP, eBGP
	var withdrawal []byte
	for _, ps := range r.order {
		name := ps.peer.Name
		if name == fromPeer || ps.sess.State() != bgp.StateEstablished {
			continue
		}
		var wire []byte
		exported := false
		if ch.New != nil {
			wire, exported = r.exportWire(ps, ch.New, lf, br, &shared)
		}
		if obs != nil {
			obs.Notified = append(obs.Notified, name)
			if exported {
				obs.SpreadTo = append(obs.SpreadTo, name)
			}
		}
		if !exported {
			// No best route left, or export policy dropped it: withdraw any
			// previous announcement of this prefix to the peer.
			if withdrawal == nil {
				withdrawal, _ = bgp.Encode(&bgp.Update{Withdrawn: []netaddr.Prefix{ch.Prefix}})
			}
			wire = withdrawal
		}
		if wire != nil {
			_ = ps.sess.SendUpdateWire(wire)
		}
	}
}

// exportWire is export policy (under br, over the subject lf lifts) for
// one route toward a peer, and the encoded UPDATE the peer receives.
// exported is false when the route is not exported to the peer. A verdict
// that modifies nothing takes the encoding in shared for the peer's
// session kind ([0] iBGP, [1] eBGP), encoding it on first use; wire is
// nil only when the export cannot be encoded.
func (r *Router) exportWire(ps *peerState, rt *rib.Route, lf lift, br filter.Brancher, shared *[2][]byte) (wire []byte, exported bool) {
	// Split-horizon: never export a route back toward the AS it came
	// from (first AS in path == peer's AS).
	if rt.Attrs.ASPath.FirstAS() == ps.peer.AS {
		return nil, false
	}
	r.subj.Lift(rt.Prefix, &rt.Attrs)
	if lf != nil {
		lf(&r.subj, &rt.Attrs, true)
	}
	verdict := filter.Run(policy(ps.peer.Export), &r.subj, br)
	if verdict.Disposition != filter.Accept {
		return nil, false
	}
	ebgp := ps.peer.AS != r.cfg.LocalAS
	if verdict.Modifies() {
		return r.encodeExport(rt, &verdict, ebgp), true
	}
	kind := boolToU64(ebgp)
	if shared[kind] == nil {
		shared[kind] = r.encodeExport(rt, nil, ebgp)
	}
	return shared[kind], true
}

// encodeExport encodes the UPDATE announcing rt with the verdict's
// modifications (none when v is nil) and, toward an eBGP peer, the
// RFC 4271 rewrite. The route's attributes are copied shallowly: its
// slices are only read, the AS_PATH prepend copies what it changes, and
// the community list is clipped so an added community is appended to a
// copy. nil means the result cannot be encoded.
func (r *Router) encodeExport(rt *rib.Route, v *filter.Verdict, ebgp bool) []byte {
	attrs := rt.Attrs
	if v != nil {
		attrs.Communities = slices.Clip(attrs.Communities)
		v.Apply(&attrs)
	}
	if ebgp {
		attrs.ASPath = attrs.ASPath.Prepend(r.cfg.LocalAS)
		attrs.HasLocalPref = false // LOCAL_PREF is intra-AS only
		attrs.LocalPref = 0
		attrs.HasNextHop = true
		attrs.NextHop = r.cfg.RouterID // next-hop-self on the virtual net
	}
	if !attrs.HasOrigin {
		attrs.HasOrigin, attrs.Origin = true, bgp.OriginIGP
	}
	wire, err := bgp.Encode(&bgp.Update{Attrs: attrs, NLRI: []netaddr.Prefix{rt.Prefix}})
	if err != nil {
		return nil
	}
	return wire
}

// --- Checkpoint support ------------------------------------------------------

// CloneCOW produces an isolated copy-on-write clone: the RIB is an
// overlay over this router's table, so creation is O(peers), independent
// of table size — exactly fork()'s cost model, which the §4.1 overhead
// measurements depend on. The receiver MUST NOT be mutated while COW
// clones are alive; DiCE guarantees this by only COW-cloning the frozen
// checkpoint router.
func (r *Router) CloneCOW(tr netsim.Transport) *Router {
	base, ok := r.loc.(*rib.Table)
	if !ok {
		// Already an overlay (clone of a clone): fall back to deep copy.
		return r.Clone(tr)
	}
	return r.fork(tr, rib.NewOverlay(base))
}

// Clone produces an isolated deep copy of the router over the given
// transport (normally a netsim.CaptureSink): the fork() analogue with
// eager copying, used where the clone must be fully independent (taking
// the checkpoint itself, memory accounting). The clone shares no mutable
// state with the parent; configuration is shared because it is immutable
// after parse.
func (r *Router) Clone(tr netsim.Transport) *Router {
	loc := rib.New()
	r.loc.WalkAll(func(p netaddr.Prefix, candidates []*rib.Route) bool {
		for _, rt := range candidates {
			cp := *rt
			cp.Attrs = rt.Attrs.Clone()
			loc.Insert(&cp)
		}
		return true
	})
	return r.fork(tr, loc)
}

// fork builds the clone around its RIB: counters and observed messages
// (treated as immutable) carried over, and every session in the state a
// forked BIRD's would be in — the clone processes exploration messages as
// if the sessions were live, but its sends go to tr only.
func (r *Router) fork(tr netsim.Transport, loc rib.RouteTable) *Router {
	c := newRouter(r.name, r.cfg, tr, loc)
	c.counters = r.counters
	for k, v := range r.lastObserved {
		c.lastObserved[k] = v
	}
	for k, v := range r.lastAnnounced {
		c.lastAnnounced[k] = v
	}
	for name, ps := range r.peers {
		c.peers[name].sess.CloneStateFrom(ps.sess)
	}
	return c
}

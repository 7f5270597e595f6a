// Package router implements the BGP daemon — the Go equivalent of BIRD's
// BGP implementation that the paper integrates DiCE with. It ties together
// the wire protocol (bgp), routing tables (rib), policy filters (filter)
// and configuration (config) over a netsim transport.
//
// The router carries both processing paths the paper's modified Oasis
// provides in one executable (§3.2): the plain concrete UPDATE pipeline
// used in normal operation (zero instrumentation overhead), and the
// instrumented concolic pipeline (HandleUpdateConcolic) that DiCE invokes
// on checkpoint clones during exploration.
package router

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"dice/internal/bgp"
	"dice/internal/concolic"
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

// peerState couples a configured peer with its live session.
type peerState struct {
	peer *config.Peer
	sess *bgp.Session
}

// Router is one BGP speaker on the virtual network. Methods must be
// called from the netsim event loop goroutine (the simulator is the
// serialization point, mirroring BIRD's single-threaded core).
type Router struct {
	cfg       *config.Config
	name      string
	transport netsim.Transport
	loc       rib.RouteTable
	peers     map[string]*peerState // keyed by peer (node) name
	peerOrder []string              // keys of peers, sorted; maintained by addPeer
	counters  Counters

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
	r := &Router{
		cfg:           cfg,
		name:          name,
		transport:     tr,
		loc:           rib.New(),
		peers:         make(map[string]*peerState, len(cfg.Peers)),
		lastObserved:  make(map[string]*bgp.Update),
		lastAnnounced: make(map[string]*bgp.Update),
	}
	for _, pc := range cfg.Peers {
		r.addPeer(pc)
	}
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

func (r *Router) addPeer(pc *config.Peer) {
	ps := &peerState{peer: pc}
	peerName := pc.Name
	ps.sess = bgp.NewSession(bgp.SessionConfig{
		LocalAS:  r.cfg.LocalAS,
		PeerAS:   pc.AS,
		RouterID: r.cfg.RouterID,
		HoldTime: pc.HoldTime,
	}, bgp.SessionHooks{
		Send: func(wire []byte) {
			r.counters.UpdatesSent += boolToU64(wire[18] == bgp.MsgUpdate)
			r.transport.Send(r.name, peerName, wire)
		},
		OnEstablished: func() { r.onEstablished(peerName) },
		OnUpdate:      func(u *bgp.Update) { r.onUpdate(peerName, u) },
		OnDown:        func(reason string) { r.onDown(peerName, reason) },
	})
	r.peers[peerName] = ps
	at := sort.SearchStrings(r.peerOrder, peerName)
	r.peerOrder = append(r.peerOrder, "")
	copy(r.peerOrder[at+1:], r.peerOrder[at:])
	r.peerOrder[at] = peerName
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

// peerNames returns the configured peer names sorted. Every loop whose
// body sends messages walks peers through this instead of the map: map
// iteration order would leak into the netsim enqueue sequence — the
// tie-break between same-timestamp deliveries — and the same witness
// injected into the same fabric could take a different number of
// deliveries to converge run to run, which the trace-replay golden
// harness (and the distributed parity contract on PropagationSteps)
// cannot tolerate. The order is maintained by addPeer (the peer set is
// fixed after construction), so the hot callers — propagate on every
// best-route change, Tick on every timer advance — pay no per-call sort
// or allocation.
func (r *Router) peerNames() []string {
	return r.peerOrder
}

// Start begins all peering sessions at virtual time now.
func (r *Router) Start(now time.Time) error {
	for _, name := range r.peerNames() {
		ps := r.peers[name]
		ps.sess.Start(now)
		if err := ps.sess.ConnUp(now); err != nil {
			return fmt.Errorf("router %s: peer %s: %w", r.name, name, err)
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
	for _, name := range r.peerNames() {
		r.peers[name].sess.Tick(now)
	}
}

// onEstablished announces the current table to the new peer.
func (r *Router) onEstablished(peerName string) {
	ps := r.peers[peerName]
	r.loc.Walk(func(rt *rib.Route) bool {
		if u := r.exportUpdate(ps, rt); u != nil {
			_ = ps.sess.SendUpdate(u)
		}
		return true
	})
}

func (r *Router) onDown(peerName string, reason string) {
	ps, ok := r.peers[peerName]
	if !ok {
		return
	}
	changes := r.loc.WithdrawPeer(ps.peer.Addr)
	for _, ch := range changes {
		r.propagate(peerName, ch)
	}
}

// onUpdate is the concrete (fast-path) UPDATE handler.
func (r *Router) onUpdate(peerName string, u *bgp.Update) {
	r.counters.UpdatesProcessed++
	r.lastObserved[peerName] = u
	if len(u.NLRI) > 0 {
		r.lastAnnounced[peerName] = u
	}
	ps := r.peers[peerName]

	for _, w := range u.Withdrawn {
		ch := r.loc.Withdraw(w, ps.peer.Addr)
		if ch.Changed() {
			r.counters.RoutesWithdrawn++
			r.propagate(peerName, ch)
		}
	}
	for _, nlri := range u.NLRI {
		disp, attrs := r.importRoute(ps, nlri, &u.Attrs)
		if disp != filter.Accept {
			r.counters.RoutesRejected++
			// Policy rejection of a previously accepted route acts as a
			// withdraw (route becomes ineligible).
			ch := r.loc.Withdraw(nlri, ps.peer.Addr)
			if ch.Changed() {
				r.propagate(peerName, ch)
			}
			continue
		}
		r.counters.RoutesAccepted++
		ch := r.loc.Insert(&rib.Route{
			Prefix:       nlri,
			Attrs:        attrs,
			PeerRouterID: ps.peer.Addr,
			PeerAS:       ps.sess.PeerAS(),
			EBGP:         ps.sess.PeerAS() != r.cfg.LocalAS,
		})
		if ch.Changed() {
			r.propagate(peerName, ch)
		}
	}
}

// importRoute runs validation + import policy for one concrete NLRI —
// the fast path: no constraint recording.
func (r *Router) importRoute(ps *peerState, nlri netaddr.Prefix, attrs *bgp.Attrs) (filter.Disposition, bgp.Attrs) {
	return r.importSubject(ps, filter.SubjectFromRoute(nlri, attrs), attrs, filter.ConcreteBrancher{})
}

// importSubject is the one import pipeline: loop check, import filter,
// verdict. The Brancher is the instrumentation seam — ConcreteBrancher
// in normal operation, the concolic RunContext during exploration, where
// subj carries the fields DiCE marked symbolic instead of the concrete
// message's.
func (r *Router) importSubject(ps *peerState, subj *filter.Subject, attrs *bgp.Attrs, br filter.Brancher) (filter.Disposition, bgp.Attrs) {
	// RFC 4271 §9.1.2: drop paths containing our own AS (loop). The check
	// concerns the path structure, which stays concrete in the DiCE input
	// model.
	if attrs.ASPath.Contains(r.cfg.LocalAS) {
		return filter.Reject, bgp.Attrs{}
	}
	f := ps.peer.Import
	if f == nil {
		f = filter.AcceptAll
	}
	verdict := filter.Run(f, subj, br)
	if verdict.Disposition != filter.Accept {
		return filter.Reject, bgp.Attrs{}
	}
	out := attrs.Clone()
	verdict.Apply(&out)
	return filter.Accept, out
}

// propagate exports a best-route change to every established peer other
// than the one it came from.
func (r *Router) propagate(fromPeer string, ch rib.Change) {
	for _, name := range r.peerNames() {
		ps := r.peers[name]
		if name == fromPeer || ps.sess.State() != bgp.StateEstablished {
			continue
		}
		var u *bgp.Update
		if ch.New == nil {
			u = &bgp.Update{Withdrawn: []netaddr.Prefix{ch.Prefix}}
		} else {
			u = r.exportUpdate(ps, ch.New)
			if u == nil {
				// Export policy dropped it: withdraw any previous
				// announcement of this prefix to the peer.
				u = &bgp.Update{Withdrawn: []netaddr.Prefix{ch.Prefix}}
			}
		}
		_ = ps.sess.SendUpdate(u)
	}
}

// exportUpdate applies export policy and eBGP attribute rewriting for one
// route toward a peer; nil means the route is not exported.
func (r *Router) exportUpdate(ps *peerState, rt *rib.Route) *bgp.Update {
	// Split-horizon: never export a route back toward the AS it came
	// from (first AS in path == peer's AS).
	if rt.Attrs.ASPath.FirstAS() == ps.peer.AS {
		return nil
	}
	f := ps.peer.Export
	if f == nil {
		f = filter.AcceptAll
	}
	subj := filter.SubjectFromRoute(rt.Prefix, &rt.Attrs)
	verdict := filter.Run(f, subj, filter.ConcreteBrancher{})
	if verdict.Disposition != filter.Accept {
		return nil
	}
	attrs := rt.Attrs.Clone()
	verdict.Apply(&attrs)

	ebgp := ps.peer.AS != r.cfg.LocalAS
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
	return &bgp.Update{Attrs: attrs, NLRI: []netaddr.Prefix{rt.Prefix}}
}

// --- Checkpoint support ------------------------------------------------------

// EncodeStateChunks serializes the router's complete mutable state (the
// Loc-RIB with all candidates, plus session counters) as stable regions:
// one chunk per /12 address bucket of the RIB and one metadata chunk.
// Mutating routes in one bucket leaves every other chunk byte-identical,
// which is what makes checkpoint COW sharing behave like fork()'s — a
// route insertion must not "shift" unrelated memory.
func (r *Router) EncodeStateChunks() [][]byte {
	// 4096 buckets (top 12 address bits): at full table scale each bucket
	// holds a few dozen routes ≈ one or two 4 KiB pages, matching the
	// granularity at which fork()'s COW dirties real heap pages.
	buckets := make([][]byte, 4096)
	r.loc.WalkAll(func(p netaddr.Prefix, candidates []*rib.Route) bool {
		b := int(uint32(p.Addr()) >> 20)
		out := buckets[b]
		out = binary.BigEndian.AppendUint32(out, uint32(p.Addr()))
		out = append(out, uint8(p.Bits()))
		out = binary.BigEndian.AppendUint16(out, uint16(len(candidates)))
		// Deterministic candidate order: by peer router ID, locals first.
		sorted := append([]*rib.Route(nil), candidates...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Local != sorted[j].Local {
				return sorted[i].Local
			}
			return sorted[i].PeerRouterID < sorted[j].PeerRouterID
		})
		for _, rt := range sorted {
			out = binary.BigEndian.AppendUint32(out, uint32(rt.PeerRouterID))
			out = binary.BigEndian.AppendUint16(out, rt.PeerAS)
			flags := uint8(0)
			if rt.EBGP {
				flags |= 1
			}
			if rt.Local {
				flags |= 2
			}
			out = append(out, flags)
			wire, err := bgp.Encode(&bgp.Update{Attrs: rt.Attrs, NLRI: []netaddr.Prefix{rt.Prefix}})
			if err != nil {
				panic(fmt.Sprintf("router: unencodable route state: %v", err))
			}
			out = binary.BigEndian.AppendUint32(out, uint32(len(wire)))
			out = append(out, wire...)
		}
		buckets[b] = out
		return true
	})

	// Metadata chunk: identity + session counters.
	var meta []byte
	meta = append(meta, 'R', 'T', 'R', '1')
	meta = binary.BigEndian.AppendUint32(meta, uint32(r.loc.Prefixes()))
	names := make([]string, 0, len(r.peers))
	for name := range r.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.peers[name].sess
		meta = append(meta, []byte(name)...)
		meta = append(meta, 0)
		meta = binary.BigEndian.AppendUint64(meta, s.UpdatesIn)
		meta = binary.BigEndian.AppendUint64(meta, s.UpdatesOut)
	}

	chunks := make([][]byte, 0, 4097)
	chunks = append(chunks, meta)
	for _, b := range buckets {
		if len(b) > 0 {
			chunks = append(chunks, b)
		}
	}
	return chunks
}

// EncodeState implements checkpoint.Checkpointable by concatenating the
// chunked encoding.
func (r *Router) EncodeState() []byte {
	var out []byte
	for _, c := range r.EncodeStateChunks() {
		out = append(out, c...)
	}
	return out
}

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
	c := &Router{
		cfg:           r.cfg,
		name:          r.name,
		transport:     tr,
		loc:           rib.NewOverlay(base),
		peers:         make(map[string]*peerState, len(r.peers)),
		counters:      r.counters,
		lastObserved:  make(map[string]*bgp.Update, len(r.lastObserved)),
		lastAnnounced: make(map[string]*bgp.Update, len(r.lastAnnounced)),
	}
	for _, pc := range r.cfg.Peers {
		c.addPeer(pc)
	}
	for k, v := range r.lastObserved {
		c.lastObserved[k] = v
	}
	for k, v := range r.lastAnnounced {
		c.lastAnnounced[k] = v
	}
	for name, ps := range r.peers {
		c.peers[name].forceEstablished(ps.sess)
	}
	return c
}

// Clone produces an isolated deep copy of the router over the given
// transport (normally a netsim.CaptureSink): the fork() analogue with
// eager copying, used where the clone must be fully independent (taking
// the checkpoint itself, memory accounting). The clone shares no mutable
// state with the parent; configuration is shared because it is immutable
// after parse.
func (r *Router) Clone(tr netsim.Transport) *Router {
	c := &Router{
		cfg:           r.cfg,
		name:          r.name,
		transport:     tr,
		loc:           rib.New(),
		peers:         make(map[string]*peerState, len(r.peers)),
		counters:      r.counters,
		lastObserved:  make(map[string]*bgp.Update, len(r.lastObserved)),
		lastAnnounced: make(map[string]*bgp.Update, len(r.lastAnnounced)),
	}
	for _, pc := range r.cfg.Peers {
		c.addPeer(pc)
	}
	// Deep-copy the RIB.
	r.loc.WalkAll(func(p netaddr.Prefix, candidates []*rib.Route) bool {
		for _, rt := range candidates {
			c.loc.Insert(&rib.Route{
				Prefix:       rt.Prefix,
				Attrs:        rt.Attrs.Clone(),
				PeerRouterID: rt.PeerRouterID,
				PeerAS:       rt.PeerAS,
				EBGP:         rt.EBGP,
				Local:        rt.Local,
			})
		}
		return true
	})
	for k, v := range r.lastObserved {
		c.lastObserved[k] = v // messages are treated as immutable
	}
	for k, v := range r.lastAnnounced {
		c.lastAnnounced[k] = v
	}
	// Clone sessions come up Established-equivalent: the clone processes
	// exploration messages as if the sessions were live, but its sends go
	// to the capture transport only.
	for name, ps := range r.peers {
		c.peers[name].forceEstablished(ps.sess)
	}
	return c
}

// forceEstablished puts a cloned session directly into Established with
// counters copied from the original — the state a forked BIRD would be in.
func (ps *peerState) forceEstablished(orig *bgp.Session) {
	ps.sess.CloneStateFrom(orig)
}

// --- DiCE instrumentation hooks ----------------------------------------------

// ExplorationOutcome is the instrumented handler's result for one
// explored input, consumed by the DiCE oracles.
type ExplorationOutcome struct {
	Peer     string
	Prefix   netaddr.Prefix
	Accepted bool
	OriginAS uint16
	// BestChanged reports whether the route became the new best path in
	// the clone's RIB (i.e. it would steer traffic).
	BestChanged bool
	// PrevOriginAS is the origin AS of the route previously selected for
	// this prefix (0 if none) — the oracle's hijack comparison input.
	PrevOriginAS uint16
	PrevExisted  bool
	// SpreadTo lists the peers to which the clone's export policy would
	// re-announce the route — the condition under which a local
	// misconfiguration becomes an Internet-wide incident (the PCCW side
	// of the YouTube hijack). Export filters are evaluated concolically,
	// so their branches join the explored path condition.
	SpreadTo []string
}

// SymbolicUpdateVars declares the standard DiCE input model for a seed
// UPDATE: NLRI address and mask length plus small attribute fields are
// symbolic (§3.2), keeping every generated message syntactically valid.
type SymbolicUpdateVars struct {
	Addr      string // 32-bit NLRI network address
	Len       string // 8-bit NLRI mask length
	Origin    string // 8-bit ORIGIN code
	MED       string // 32-bit MED
	LocalPref string // 32-bit LOCAL_PREF
}

// StandardVars is the canonical naming used by the DiCE engine.
var StandardVars = SymbolicUpdateVars{
	Addr:      "nlri.addr",
	Len:       "nlri.len",
	Origin:    "attr.origin",
	MED:       "attr.med",
	LocalPref: "attr.local_pref",
}

// DeclareSymbolicInputs registers the input model on an engine, seeding
// each variable from the observed UPDATE's first NLRI and attributes.
func DeclareSymbolicInputs(eng *concolic.Engine, seed *bgp.Update) error {
	if len(seed.NLRI) == 0 {
		return fmt.Errorf("router: seed update has no NLRI")
	}
	p := seed.NLRI[0]
	var medSeed, lpSeed uint64
	if seed.Attrs.HasMED {
		medSeed = uint64(seed.Attrs.MED)
	}
	if seed.Attrs.HasLocalPref {
		lpSeed = uint64(seed.Attrs.LocalPref)
	} else {
		lpSeed = 100
	}
	eng.Var(StandardVars.Addr, 32, uint64(uint32(p.Addr())))
	eng.Var(StandardVars.Len, 8, uint64(p.Bits()))
	eng.Var(StandardVars.Origin, 8, uint64(seed.Attrs.Origin))
	eng.Var(StandardVars.MED, 32, medSeed)
	eng.Var(StandardVars.LocalPref, 32, lpSeed)
	return nil
}

// HandleUpdateConcolic is the instrumented UPDATE handler: it processes a
// single exploratory input built from the seed message with the symbolic
// fields replaced by engine-chosen values, against this (cloned) router's
// live state. Constraints flow through rc; outbound messages flow to the
// clone's capture transport.
func (r *Router) HandleUpdateConcolic(rc *concolic.RunContext, peerName string, seed *bgp.Update) ExplorationOutcome {
	ps, ok := r.peers[peerName]
	if !ok || len(seed.NLRI) == 0 {
		return ExplorationOutcome{Peer: peerName}
	}

	addrV := rc.Input(StandardVars.Addr)
	lenV := rc.Input(StandardVars.Len)
	originV := rc.Input(StandardVars.Origin)
	medV := rc.Input(StandardVars.MED)
	lpV := rc.Input(StandardVars.LocalPref)

	// Well-formedness the wire format guarantees: these are assumptions,
	// not explorable branches — DiCE only generates valid messages.
	rc.Assume(concolic.Le(lenV, concolic.Concrete(32, 8)))
	rc.Assume(concolic.Le(originV, concolic.Concrete(bgp.OriginIncomplete, 8)))
	// The NLRI encoding canonicalizes host bits; model that by masking.
	maskC := concolic.Concrete(uint64(uint32(netaddr.Mask(int(lenV.C)))), 32)
	netV := concolic.And(addrV, maskC)

	// Materialize the concrete message this run processes.
	prefix := netaddr.PrefixFrom(netaddr.Addr(uint32(netV.C)), int(lenV.C))
	attrs := seed.Attrs.Clone()
	attrs.Origin = uint8(originV.C)
	attrs.HasMED, attrs.MED = true, uint32(medV.C)
	attrs.HasLocalPref, attrs.LocalPref = true, uint32(lpV.C)

	r.counters.UpdatesProcessed++

	// Build the symbolic filter subject: concolic where DiCE marked
	// fields symbolic, concrete elsewhere.
	subj := filter.SubjectFromRoute(prefix, &attrs)
	subj.NetAddr = netV
	subj.NetLen = lenV
	subj.Origin = originV
	subj.MED = medV
	subj.LocalPref = lpV

	out := ExplorationOutcome{Peer: peerName, Prefix: prefix, OriginAS: attrs.ASPath.OriginAS()}
	// The §4.2 oracle compares against the route currently steering this
	// address range: the longest prefix covering the announcement. This
	// catches both exact-prefix origin changes and the YouTube-style
	// more-specific hijack (a /24 punched into a victim's /22).
	if prev := r.loc.CoveringBest(prefix); prev != nil {
		out.PrevExisted = true
		out.PrevOriginAS = prev.OriginAS()
	}

	disp, finalAttrs := r.importSubject(ps, subj, &attrs, rc)
	if disp != filter.Accept {
		return out
	}
	out.Accepted = true
	ch := r.loc.Insert(&rib.Route{
		Prefix:       prefix,
		Attrs:        finalAttrs,
		PeerRouterID: ps.peer.Addr,
		PeerAS:       ps.peer.AS,
		EBGP:         ps.peer.AS != r.cfg.LocalAS,
	})
	out.BestChanged = ch.Changed()
	if ch.Changed() {
		// Consequences propagate into the capture sink, never the wire.
		r.propagate(peerName, ch)
		// Export policies evaluated concolically: which peers would this
		// route spread to, and under what input conditions? The NLRI
		// fields stay symbolic; attribute fields are concrete after the
		// import policy's modifications.
		exSubj := filter.SubjectFromRoute(prefix, &finalAttrs)
		exSubj.NetAddr = subj.NetAddr
		exSubj.NetLen = subj.NetLen
		// Sorted: the export filters run under the recording context, so
		// peer order becomes path-constraint order.
		for _, name := range r.peerNames() {
			other := r.peers[name]
			if name == peerName {
				continue
			}
			if finalAttrs.ASPath.FirstAS() == other.peer.AS {
				continue // split horizon (the AS path stays concrete)
			}
			ef := other.peer.Export
			if ef == nil {
				ef = filter.AcceptAll
			}
			if v := filter.Run(ef, exSubj, rc); v.Disposition == filter.Accept {
				out.SpreadTo = append(out.SpreadTo, name)
			}
		}
		sort.Strings(out.SpreadTo)
	}
	return out
}

// HandleUpdateConcrete processes one UPDATE against this (cloned) router
// with no symbolic instrumentation and reports the outcome. Used by the
// raw-bytes-marking ablation, where generated messages are decoded from
// mutated wire bytes and only the surviving valid ones reach policy code.
func (r *Router) HandleUpdateConcrete(peerName string, u *bgp.Update) ExplorationOutcome {
	ps, ok := r.peers[peerName]
	if !ok || len(u.NLRI) == 0 {
		return ExplorationOutcome{Peer: peerName}
	}
	prefix := u.NLRI[0]
	r.counters.UpdatesProcessed++
	out := ExplorationOutcome{Peer: peerName, Prefix: prefix, OriginAS: u.Attrs.ASPath.OriginAS()}
	if prev := r.loc.CoveringBest(prefix); prev != nil {
		out.PrevExisted = true
		out.PrevOriginAS = prev.OriginAS()
	}
	disp, attrs := r.importRoute(ps, prefix, &u.Attrs)
	if disp != filter.Accept {
		return out
	}
	out.Accepted = true
	ch := r.loc.Insert(&rib.Route{
		Prefix:       prefix,
		Attrs:        attrs,
		PeerRouterID: ps.peer.Addr,
		PeerAS:       ps.peer.AS,
		EBGP:         ps.peer.AS != r.cfg.LocalAS,
	})
	out.BestChanged = ch.Changed()
	if ch.Changed() {
		r.propagate(peerName, ch)
	}
	return out
}

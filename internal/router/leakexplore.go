package router

import (
	"fmt"
	"sort"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/filter"
	"dice/internal/netaddr"
	"dice/internal/rib"
)

// This file carries the instrumented handler for the "routeleak"
// scenario: the symbolic input is the (prefix, AS-path origin, community)
// triple crossing a policy edge, so exploration can steer an announcement
// onto any community a policy tests — in particular the RFC 1997
// NO_EXPORT community whose escape past an AS boundary is the federated
// route-leak oracle.

// SymbolicLeakVars names the routeleak scenario's input model.
type SymbolicLeakVars struct {
	Addr      string // 32-bit NLRI network address
	Len       string // 8-bit NLRI mask length
	OriginAS  string // 16-bit origin AS of the presented AS path
	Community string // 32-bit community word carried by the announcement
}

// StandardLeakVars is the canonical naming used by the DiCE engine.
var StandardLeakVars = SymbolicLeakVars{
	Addr:      "leak.addr",
	Len:       "leak.len",
	OriginAS:  "leak.origin_as",
	Community: "leak.community",
}

// DeclareLeakInputs registers the routeleak input model on an engine,
// seeding from the observed UPDATE's first NLRI, path origin and first
// community (0 = none).
func DeclareLeakInputs(eng *concolic.Engine, seed *bgp.Update) error {
	if len(seed.NLRI) == 0 {
		return fmt.Errorf("router: seed update has no NLRI")
	}
	p := seed.NLRI[0]
	var comm uint64
	if len(seed.Attrs.Communities) > 0 {
		comm = uint64(seed.Attrs.Communities[0])
	}
	eng.Var(StandardLeakVars.Addr, 32, uint64(uint32(p.Addr())))
	eng.Var(StandardLeakVars.Len, 8, uint64(p.Bits()))
	eng.Var(StandardLeakVars.OriginAS, 16, uint64(seed.Attrs.ASPath.OriginAS()))
	eng.Var(StandardLeakVars.Community, 32, comm)
	return nil
}

// LeakOutcome is the instrumented leak handler's result for one explored
// input, consumed by the routeleak oracles.
type LeakOutcome struct {
	Peer     string
	Prefix   netaddr.Prefix
	OriginAS uint16 // concrete origin AS this run presented
	// Community is the community word the announcement carried this run
	// (0 = none; by the SymCommunity convention a zero slot is absent).
	Community   uint32
	Accepted    bool
	BestChanged bool
	// SpreadTo lists peers the clone's export policy re-announces the
	// route to. Export filters are evaluated concolically, so a
	// community-conditioned export clause (e.g. "reject NO_EXPORT")
	// contributes branches the engine can negate.
	SpreadTo []string
}

// leakPath builds the AS path the peer presents: [peerAS] when the peer
// itself originates, [peerAS origin] otherwise. The path *structure*
// stays concrete (only the origin AS value is symbolic); recorded
// constraints never mention path length, so the concrete length switch
// below cannot make them imprecise — and every oracle witness is
// re-validated by execution anyway.
func leakPath(peerAS, origin uint16) bgp.ASPath {
	if origin == peerAS || origin == 0 {
		return bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{peerAS}}}
	}
	return bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{peerAS, origin}}}
}

// withoutCommunity returns comms minus one occurrence of the
// materialized symbolic word c — unless the seed genuinely carried c, in
// which case it is a real concrete community and stays.
func withoutCommunity(comms []uint32, c uint32, seed *bgp.Attrs) []uint32 {
	if c == 0 || seed.HasCommunity(c) {
		return comms
	}
	out := make([]uint32, 0, len(comms))
	dropped := false
	for _, x := range comms {
		if !dropped && x == c {
			dropped = true
			continue
		}
		out = append(out, x)
	}
	return out
}

// HandleLeakConcolic is the routeleak scenario's instrumented handler: it
// processes one exploratory announcement whose prefix, path origin and
// community are engine-chosen, against this (cloned) router's live state.
// Constraints flow through rc; outbound messages flow to the clone's
// capture transport.
func (r *Router) HandleLeakConcolic(rc *concolic.RunContext, peerName string, seed *bgp.Update) LeakOutcome {
	ps, ok := r.peers[peerName]
	if !ok || len(seed.NLRI) == 0 {
		return LeakOutcome{Peer: peerName}
	}

	addrV := rc.Input(StandardLeakVars.Addr)
	lenV := rc.Input(StandardLeakVars.Len)
	originV := rc.Input(StandardLeakVars.OriginAS)
	commV := rc.Input(StandardLeakVars.Community)

	// Well-formedness: valid mask length, and the peer's own loop
	// prevention guarantees it never presents a path containing our AS.
	rc.Assume(concolic.Le(lenV, concolic.Concrete(32, 8)))
	rc.Assume(concolic.Ne(originV, concolic.Concrete(uint64(r.cfg.LocalAS), 16)))
	// The NLRI encoding canonicalizes host bits; model that by masking.
	maskC := concolic.Concrete(uint64(uint32(netaddr.Mask(int(lenV.C)))), 32)
	netV := concolic.And(addrV, maskC)

	// Materialize the concrete message this run processes.
	prefix := netaddr.PrefixFrom(netaddr.Addr(uint32(netV.C)), int(lenV.C))
	attrs := seed.Attrs.Clone()
	attrs.ASPath = leakPath(ps.peer.AS, uint16(originV.C))
	comm := uint32(commV.C)
	if comm != 0 && !attrs.HasCommunity(comm) {
		attrs.Communities = append(attrs.Communities, comm)
	}

	r.counters.UpdatesProcessed++

	subj := filter.SubjectFromRoute(prefix, &attrs)
	subj.NetAddr = netV
	subj.NetLen = lenV
	subj.OriginAS = originV
	subj.SymCommunity = commV
	// The subject's concrete community set must hold only the seed's own
	// communities: the engine-chosen word travels exclusively through the
	// symbolic slot. Leaving the materialized value in the concrete set
	// would let a community clause match it concretely — recording no
	// constraint — and silently drop the path condition's dependence on
	// the symbolic community.
	subj.Communities = seed.Attrs.Communities

	out := LeakOutcome{Peer: peerName, Prefix: prefix, OriginAS: uint16(originV.C), Community: comm}
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
		// route spread to, and under what input conditions? Prefix, path
		// origin and the community slot stay symbolic, so a "reject
		// NO_EXPORT" export clause becomes a negatable branch.
		exSubj := filter.SubjectFromRoute(prefix, &finalAttrs)
		exSubj.NetAddr = netV
		exSubj.NetLen = lenV
		exSubj.OriginAS = originV
		exSubj.SymCommunity = commV
		// Same rule as the import subject: exclude the materialized
		// symbolic word from the concrete set (import-verdict-added
		// communities are genuinely concrete and stay).
		exSubj.Communities = withoutCommunity(finalAttrs.Communities, comm, &seed.Attrs)
		// Sorted: the export filters run under the recording context, so
		// peer order becomes path-constraint order.
		for _, name := range r.peerNames() {
			other := r.peers[name]
			if name == peerName {
				continue
			}
			if finalAttrs.ASPath.FirstAS() == other.peer.AS {
				continue // split horizon (the AS path structure stays concrete)
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

package router

import (
	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/filter"
	"dice/internal/netaddr"
)

// The "routeleak" scenario: the symbolic input is the (prefix, AS-path
// origin, community) triple crossing a policy edge, so exploration can
// steer an announcement onto any community a policy tests — in particular
// the RFC 1997 NO_EXPORT community whose escape past an AS boundary is
// the federated route-leak oracle.
const (
	LeakAddr      = "leak.addr"
	LeakLen       = "leak.len"
	LeakOriginAS  = "leak.origin_as" // origin AS of the presented AS path
	LeakCommunity = "leak.community" // community word carried by the announcement
)

// LeakInputs is the routeleak input model, seeded from the observed
// UPDATE's first NLRI, path origin and first community (0 = none).
var LeakInputs = InputModel[*bgp.Update]{
	Inputs: []Input[*bgp.Update]{
		{LeakAddr, 32, func(u *bgp.Update) uint64 { return uint64(uint32(u.NLRI[0].Addr())) }},
		{LeakLen, 8, func(u *bgp.Update) uint64 { return uint64(u.NLRI[0].Bits()) }},
		{LeakOriginAS, 16, func(u *bgp.Update) uint64 { return uint64(u.Attrs.ASPath.OriginAS()) }},
		{LeakCommunity, 32, func(u *bgp.Update) uint64 {
			if len(u.Attrs.Communities) == 0 {
				return 0
			}
			return uint64(u.Attrs.Communities[0])
		}},
	},
	Usable: requireNLRI,
	// The presented AS path is [peerAS] when the peer itself originates,
	// [peerAS origin] otherwise. The path *structure* stays concrete (only
	// the origin AS value is symbolic); recorded constraints never mention
	// path length, so the concrete length switch cannot make them imprecise
	// — and every oracle witness is re-validated by execution anyway. The
	// seed's own communities stay — an acceptance may depend on them, and
	// concrete membership hits record no constraint — and the engine-chosen
	// word joins them when it is non-zero.
	Materialize: func(seed *bgp.Update, peerAS uint16, in map[string]uint64) *bgp.Update {
		attrs := seed.Attrs.Clone()
		attrs.ASPath = bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{peerAS}}}
		if origin := uint16(in[LeakOriginAS]); origin != peerAS && origin != 0 {
			attrs.ASPath[0].ASNs = append(attrs.ASPath[0].ASNs, origin)
		}
		if comm := uint32(in[LeakCommunity]); comm != 0 && !attrs.HasCommunity(comm) {
			attrs.Communities = append(attrs.Communities, comm)
		}
		return &bgp.Update{Attrs: attrs, NLRI: []netaddr.Prefix{inputPrefix(in, LeakAddr, LeakLen)}}
	},
}

// withoutCommunity returns comms minus one occurrence of the
// materialized symbolic word c — unless the seed genuinely carried c, in
// which case it is a real concrete community and stays.
func withoutCommunity(comms []uint32, c uint32, seed *bgp.Attrs) []uint32 {
	if c == 0 || seed.HasCommunity(c) {
		return comms
	}
	for i, x := range comms {
		if x == c {
			return append(comms[:i:i], comms[i+1:]...) // clipped: never writes into the route's slice
		}
	}
	return comms
}

// ExploreLeak processes one exploratory announcement whose prefix, path
// origin and community are engine-chosen.
func (r *Router) ExploreLeak(rc *concolic.RunContext, peerName string, seed *bgp.Update) Outcome {
	ps := r.peer(peerName)
	if ps == nil {
		return Outcome{Peer: peerName}
	}
	netV, lenV := symbolicPrefix(rc, LeakAddr, LeakLen)
	originV, commV := rc.Input(LeakOriginAS), rc.Input(LeakCommunity)
	// The peer's own loop prevention guarantees it never presents a path
	// containing our AS.
	rc.Assume(concolic.Ne(originV, concolic.Concrete(uint64(r.cfg.LocalAS), 16)))
	u := LeakInputs.Materialize(seed, ps.peer.AS, LeakInputs.Named(rc.Env()))
	comm := uint32(commV.C)
	// Prefix, path origin and the community slot are symbolic before the
	// import filter and stay so before every export filter, so a "reject
	// NO_EXPORT" export clause becomes a negatable branch.
	out := r.explore(peerName, u, func(subj *filter.Subject, attrs *bgp.Attrs, _ bool) {
		subj.NetAddr, subj.NetLen, subj.OriginAS, subj.SymCommunity = netV, lenV, originV, commV
		// The engine-chosen word travels exclusively through the symbolic
		// slot. Leaving the materialized value in the concrete set would let
		// a community clause match it concretely — recording no constraint —
		// and silently drop the path condition's dependence on the symbolic
		// community. (Communities the import verdict added are genuinely
		// concrete and stay.)
		subj.Communities = withoutCommunity(attrs.Communities, comm, &seed.Attrs)
	}, rc)
	// Findings carry the model's own origin input (0: the peer originates),
	// not the materialized path's.
	out.OriginAS, out.Community = uint16(originV.C), comm
	return out
}

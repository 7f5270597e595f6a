package router

import (
	"fmt"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/netaddr"
	"dice/internal/rib"
)

// The paper explores the announcement side of UPDATE messages; the
// "withdraw" scenario extends the instrumented surface to the withdrawal
// side: which WITHDRAWN-routes fields can a peer send to change the
// node's routing, and what spreads when it does? A withdraw is the other
// half of the YouTube incident's cleanup — and a misbehaving peer
// flapping withdraws is a classic availability attack — so the same
// concolic machinery applies: prefix fields become symbolic, the RIB's
// reaction is the explored behavior.
const (
	WithdrawAddr = "wdr.addr"
	WithdrawLen  = "wdr.len"
)

// withdrawSeed is the prefix a withdraw exploration starts from: the
// observed UPDATE's first withdrawn prefix if it carried one, else its
// first NLRI (withdrawing what was just announced).
func withdrawSeed(u *bgp.Update) netaddr.Prefix {
	if len(u.Withdrawn) > 0 {
		return u.Withdrawn[0]
	}
	return u.NLRI[0]
}

// WithdrawInputs is the input model for a route withdrawal.
var WithdrawInputs = InputModel[*bgp.Update]{
	Inputs: []Input[*bgp.Update]{
		{WithdrawAddr, 32, func(u *bgp.Update) uint64 { return uint64(uint32(withdrawSeed(u).Addr())) }},
		{WithdrawLen, 8, func(u *bgp.Update) uint64 { return uint64(withdrawSeed(u).Bits()) }},
	},
	Usable: func(seed *bgp.Update) error {
		if len(seed.Withdrawn) == 0 && len(seed.NLRI) == 0 {
			return fmt.Errorf("router: seed update carries neither withdrawn routes nor NLRI")
		}
		return nil
	},
	Materialize: func(_ *bgp.Update, _ uint16, in map[string]uint64) *bgp.Update {
		return &bgp.Update{Withdrawn: []netaddr.Prefix{inputPrefix(in, WithdrawAddr, WithdrawLen)}}
	},
}

// maxWithdrawTargets bounds how many of the peer's contributed routes the
// withdraw model enumerates as explorable targets.
const maxWithdrawTargets = 16

// routesFromPeer returns up to limit prefixes this peer contributed to
// the Loc-RIB, in trie order.
func (r *Router) routesFromPeer(peerRouterID netaddr.Addr, limit int) []netaddr.Prefix {
	var out []netaddr.Prefix
	r.loc.WalkAll(func(p netaddr.Prefix, candidates []*rib.Route) bool {
		for _, c := range candidates {
			if c.PeerRouterID == peerRouterID && !c.Local {
				out = append(out, p)
				break
			}
		}
		return len(out) < limit
	})
	return out
}

// ExploreWithdraw processes one exploratory withdrawal with the prefix
// fields symbolic. The pipeline's withdraw is an exact-match lookup over
// the peer's contributed routes, which records nothing; so the model
// enumerates those routes (bounded) and branches on whether the symbolic
// prefix names each one, and the pipeline's observed effect then has to
// confirm the prediction.
func (r *Router) ExploreWithdraw(rc *concolic.RunContext, peerName string, seed *bgp.Update) Outcome {
	ps := r.peers[peerName]
	if ps == nil {
		return Outcome{Peer: peerName}
	}
	netV, lenV := symbolicPrefix(rc, WithdrawAddr, WithdrawLen)
	u := WithdrawInputs.Materialize(seed, ps.peer.AS, WithdrawInputs.Named(rc.Env()))

	targets := r.routesFromPeer(ps.peer.Addr, maxWithdrawTargets+1)
	truncated := len(targets) > maxWithdrawTargets
	if truncated {
		targets = targets[:maxWithdrawTargets]
		rc.Note("withdraw targets truncated to %d of the peer's routes", maxWithdrawTargets)
	}
	matched, inTargets := false, false
	for _, target := range targets {
		if target == u.Withdrawn[0] {
			inTargets = true
		}
		hit := concolic.BoolAnd(
			concolic.Eq(netV, concolic.Concrete(uint64(uint32(target.Addr())), 32)),
			concolic.Eq(lenV, concolic.Concrete(uint64(target.Bits()), 8)))
		if rc.Branch(hit) {
			matched = true
			break
		}
	}

	out := r.explore(peerName, u, nil, rc)
	// Over the enumerated targets the branch prediction must agree with the
	// RIB's effect (a divergence would mean the model lies about the
	// executable behavior); a route beyond the truncation bound may still
	// be withdrawn concretely — the path constraint then simply does not
	// pin the prefix.
	if matched != inTargets || (matched && !out.Accepted) || (!matched && out.Accepted && !truncated) {
		panic("router: withdraw input model diverged from the RIB")
	}
	return out
}

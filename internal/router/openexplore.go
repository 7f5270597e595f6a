package router

import (
	"errors"

	"dice/internal/bgp"
	"dice/internal/concolic"
)

// The paper explores UPDATE messages only: "the other state changing
// messages are only responsible for establishing or tearing down peerings
// and we leave them for future work" (§3.2). This file implements that
// future work: concolic exploration of OPEN-message handling, covering
// the session FSM's acceptance and rejection paths.

// OpenOutcome reports how the session FSM handled one explored OPEN.
type OpenOutcome struct {
	Peer        string
	Established bool
	// NotifyCode/NotifySubcode identify the rejection when not established
	// (RFC 4271 OPEN Message Error subcodes).
	NotifyCode    uint8
	NotifySubcode uint8
}

// The "open" scenario's inputs: every fixed-size header field the FSM
// inspects.
const (
	OpenVersion  = "open.version"
	OpenAS       = "open.as"
	OpenHoldTime = "open.holdtime"
	OpenRouterID = "open.router_id"
)

// OpenInputs is the input model for an OPEN message, seeded from a
// well-formed OPEN the peer would legitimately send.
var OpenInputs = InputModel[*bgp.Open]{
	Inputs: []Input[*bgp.Open]{
		{OpenVersion, 8, func(o *bgp.Open) uint64 { return uint64(o.Version) }},
		{OpenAS, 16, func(o *bgp.Open) uint64 { return uint64(o.AS) }},
		{OpenHoldTime, 16, func(o *bgp.Open) uint64 { return uint64(o.HoldTime) }},
		{OpenRouterID, 32, func(o *bgp.Open) uint64 { return uint64(uint32(o.RouterID)) }},
	},
}

// HandleOpenConcolic is the instrumented OPEN handler: the run's symbolic
// header goes through the very checks a live session applies (bgp's
// OpenHeader.Check while decoding, then CheckPeerAS against the
// configured peer), each recording its constraint under rc. The outcome is
// the NOTIFICATION the first failing check would send, or Established.
func (r *Router) HandleOpenConcolic(rc *concolic.RunContext, peerName string) OpenOutcome {
	out := OpenOutcome{Peer: peerName}
	ps := r.peer(peerName)
	if ps == nil {
		return out
	}
	h := bgp.OpenHeader{
		Version:  rc.Input(OpenVersion),
		AS:       rc.Input(OpenAS),
		HoldTime: rc.Input(OpenHoldTime),
		RouterID: rc.Input(OpenRouterID),
	}
	err := h.Check(rc)
	if err == nil {
		err = h.CheckPeerAS(ps.peer.AS, rc)
	}
	var perr *bgp.Error
	if !errors.As(err, &perr) {
		out.Established = true
		return out
	}
	out.NotifyCode, out.NotifySubcode = perr.Code, perr.Subcode
	return out
}

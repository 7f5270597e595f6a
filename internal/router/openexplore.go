package router

import (
	"time"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/netaddr"
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
	Materialize: func(_ *bgp.Open, _ uint16, in map[string]uint64) *bgp.Open {
		return &bgp.Open{
			Version:  uint8(in[OpenVersion]),
			AS:       uint16(in[OpenAS]),
			HoldTime: uint16(in[OpenHoldTime]),
			RouterID: netaddr.Addr(uint32(in[OpenRouterID])),
		}
	},
}

// HandleOpenConcolic is the instrumented OPEN handler: it mirrors the
// session's validation pipeline (decodeOpen + handleOpen) over symbolic
// fields, recording one constraint per check, then drives a real throwaway
// session with the materialized message to confirm the outcome concretely.
// (The UPDATE scenarios need no such confirmation: they run the router's
// own pipeline. The session FSM lives in bgp, which cannot import
// concolic, so here the model stays beside the code and checks itself
// against it on every run.)
func (r *Router) HandleOpenConcolic(rc *concolic.RunContext, peerName string) OpenOutcome {
	ps, ok := r.peers[peerName]
	if !ok {
		return OpenOutcome{Peer: peerName}
	}
	verV, asV := rc.Input(OpenVersion), rc.Input(OpenAS)
	htV, ridV := rc.Input(OpenHoldTime), rc.Input(OpenRouterID)
	open := OpenInputs.Materialize(nil, ps.peer.AS, OpenInputs.Named(rc.Env()))

	out := OpenOutcome{Peer: peerName}
	reject := func(subcode uint8) OpenOutcome {
		out.NotifyCode, out.NotifySubcode = bgp.ErrCodeOpenMessage, subcode
		return r.confirmOpen(ps, open, out)
	}
	// The branch structure mirrors the checks in bgp.decodeOpen and
	// Session.handleOpen, in order.
	switch {
	case rc.Branch(concolic.Ne(verV, concolic.Concrete(4, 8))):
		return reject(1) // unsupported version
	case rc.Branch(concolic.BoolOr(
		concolic.Eq(htV, concolic.Concrete(1, 16)),
		concolic.Eq(htV, concolic.Concrete(2, 16)))):
		return reject(6) // unacceptable hold time
	case rc.Branch(concolic.Eq(ridV, concolic.Concrete(0, 32))):
		return reject(3) // bad BGP identifier
	case rc.Branch(concolic.Ne(asV, concolic.Concrete(uint64(ps.peer.AS), 16))):
		return reject(2) // bad peer AS
	}
	out.Established = true
	return r.confirmOpen(ps, open, out)
}

// confirmOpen validates the predicted outcome by driving a real session
// with the concrete message. A disagreement panics: it would mean the
// instrumented model diverged from the executable FSM.
func (r *Router) confirmOpen(ps *peerState, open *bgp.Open, predicted OpenOutcome) OpenOutcome {
	var notified notificationCatcher
	sess := bgp.NewSession(bgp.SessionConfig{
		LocalAS:  r.cfg.LocalAS,
		PeerAS:   ps.peer.AS,
		RouterID: r.cfg.RouterID,
	}, &notified)
	now := time.Unix(0, 0)
	sess.Start(now)
	_ = sess.ConnUp(now)

	// Encode tolerates any field values (they are fixed-size); decoding
	// applies the FSM-visible validation.
	wire, err := bgp.Encode(open)
	if err == nil {
		_ = sess.Recv(now, wire)
	}
	// After our OPEN is processed the session either reached OpenConfirm
	// (it sent its KEEPALIVE; deliver one back to complete establishment)
	// or dropped to Idle with a NOTIFICATION.
	if sess.State() == bgp.StateOpenConfirm {
		ka, _ := bgp.Encode(&bgp.Keepalive{})
		_ = sess.Recv(now, ka)
	}
	gotEstablished := sess.State() == bgp.StateEstablished

	if gotEstablished != predicted.Established {
		panic("router: instrumented OPEN model diverged from the session FSM")
	}
	if !gotEstablished && (notified.code != predicted.NotifyCode || notified.subcode != predicted.NotifySubcode) {
		panic("router: instrumented OPEN model predicted the wrong notification")
	}
	return predicted
}

// notificationCatcher is the throwaway session's SessionHooks: it keeps
// the code and subcode of the last NOTIFICATION the session sent and
// ignores everything else.
type notificationCatcher struct{ code, subcode uint8 }

func (c *notificationCatcher) Send(wire []byte) {
	if m, err := bgp.Decode(wire); err == nil {
		if n, ok := m.(*bgp.Notification); ok {
			c.code, c.subcode = n.Code, n.Subcode
		}
	}
}

func (*notificationCatcher) OnEstablished()       {}
func (*notificationCatcher) OnUpdate(*bgp.Update) {}
func (*notificationCatcher) OnDown(string)        {}

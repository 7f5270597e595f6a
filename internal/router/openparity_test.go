package router

import (
	"fmt"
	"testing"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/config"
	"dice/internal/netaddr"
	"dice/internal/netsim"
)

// The OPEN half of the differential net: the "open" scenario's outcome
// for a header under a recording RunContext must be what a live node
// does when the encoded OPEN arrives on a session in OpenSent —
// Established after the KEEPALIVE, or the NOTIFICATION it sends — and
// both must be RFC 4271 §6.2's verdict, which this file states apart
// from bgp: the scenario and the session run the same checks, so only an
// outside reference notices a check that changed in both at once.

// openParityInput is one fuzz input: a peer of parityHub and the four
// header fields the input model marks symbolic.
type openParityInput struct {
	peer     string
	version  uint8
	as       uint16
	holdTime uint16
	routerID uint32
}

func (in openParityInput) open() *bgp.Open {
	return &bgp.Open{Version: in.version, AS: in.as, HoldTime: in.holdTime, RouterID: netaddr.Addr(in.routerID)}
}

// referenceOpen is RFC 4271 §6.2's verdict on the header: the first
// failing check, in the order a speaker applies them, names the
// NOTIFICATION's subcode.
func referenceOpen(in openParityInput, peerAS uint16) OpenOutcome {
	out := OpenOutcome{Peer: in.peer, NotifyCode: bgp.ErrCodeOpenMessage}
	switch {
	case in.version != 4:
		out.NotifySubcode = 1 // unsupported version number
	case in.holdTime == 1 || in.holdTime == 2:
		out.NotifySubcode = 6 // unacceptable hold time
	case in.routerID == 0:
		out.NotifySubcode = 3 // bad BGP identifier
	case in.as != peerAS:
		out.NotifySubcode = 2 // bad peer AS
	default:
		return OpenOutcome{Peer: in.peer, Established: true}
	}
	return out
}

// liveOpenOutcome delivers the OPEN to a freshly started hub and reports
// what its session did with it.
func liveOpenOutcome(t *testing.T, cfg *config.Config, peer string, wire []byte) OpenOutcome {
	t.Helper()
	sink := netsim.NewCaptureSink()
	hub := New("hub", cfg, sink)
	if err := hub.Start(parityNow); err != nil {
		t.Fatal(err)
	}
	sink.Drain(nil) // the hub's own OPENs
	hub.Deliver(parityNow, peer, wire)
	if hub.Session(peer).State() == bgp.StateOpenConfirm {
		ka, err := bgp.Encode(&bgp.Keepalive{})
		if err != nil {
			t.Fatal(err)
		}
		hub.Deliver(parityNow, peer, ka)
	}
	out := OpenOutcome{Peer: peer, Established: hub.Session(peer).State() == bgp.StateEstablished}
	for _, m := range sink.Drain(nil) {
		if msg, err := bgp.Decode(m.Data); err == nil && m.To == peer {
			if n, ok := msg.(*bgp.Notification); ok {
				out.NotifyCode, out.NotifySubcode = n.Code, n.Subcode
			}
		}
	}
	return out
}

func checkOpenParity(t *testing.T, cfg *config.Config, in openParityInput) {
	t.Helper()
	explored := New("hub", cfg, netsim.NewCaptureSink())
	var got OpenOutcome
	eng := concolic.NewEngine(func(rc *concolic.RunContext) any {
		got = explored.HandleOpenConcolic(rc, in.peer)
		return nil
	}, concolic.Options{MaxRuns: 1}) // the recording seed run alone
	msg := in.open()
	if err := OpenInputs.Declare(eng, msg); err != nil {
		t.Fatal(err)
	}
	eng.Explore()

	peerAS := cfg.FindPeer(in.peer).AS
	tag := fmt.Sprintf("peer %s (AS%d), %+v", in.peer, peerAS, *msg)
	wire, err := bgp.Encode(msg)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if live := liveOpenOutcome(t, cfg, in.peer, wire); got != live {
		t.Errorf("%s: explored outcome %+v, the live node's %+v", tag, got, live)
	}
	if want := referenceOpen(in, peerAS); got != want {
		t.Errorf("%s: explored outcome %+v, RFC 4271 says %+v", tag, got, want)
	}
}

// openParityCorpus holds the boundaries of every check: version 3/4/5,
// hold time 0/1/2/3, identifier 0, and the peer AS and its neighbours.
func openParityCorpus() []openParityInput {
	const rid = 0x0a000001
	var out []openParityInput
	for _, v := range []uint8{3, 4, 5} {
		out = append(out, openParityInput{"a", v, 65001, 90, rid})
	}
	for _, h := range []uint16{0, 1, 2, 3} {
		out = append(out, openParityInput{"b", 4, 65002, h, rid})
	}
	for _, as := range []uint16{65002, 65003, 65004} {
		out = append(out, openParityInput{"c", 4, as, 90, rid})
	}
	return append(out,
		openParityInput{"d", 4, 65004, 90, 0},
		openParityInput{"a", 3, 65000, 1, 0}, // every check fails: the first decides
		openParityInput{"a", 4, 65001, 2, 0},
		openParityInput{"b", 4, 65001, 3, 0},
	)
}

func TestOpenParityCorpus(t *testing.T) {
	cfg, err := config.Parse(parityHub)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range openParityCorpus() {
		checkOpenParity(t, cfg, in)
	}
}

// FuzzOpenParity searches for an OPEN header on which the scenario and
// the live session disagree.
func FuzzOpenParity(f *testing.F) {
	peers := []string{"a", "b", "c", "d"}
	for _, in := range openParityCorpus() {
		f.Add(in.peer[0]-'a', in.version, in.as, in.holdTime, in.routerID)
	}
	cfg, err := config.Parse(parityHub)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, peer, version uint8, as, holdTime uint16, routerID uint32) {
		checkOpenParity(t, cfg, openParityInput{peers[int(peer)%len(peers)], version, as, holdTime, routerID})
	})
}

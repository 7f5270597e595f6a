package bgp

import (
	"bytes"
	"testing"
	"time"

	"dice/internal/netaddr"
)

// hookFuncs adapts four closures to SessionHooks for tests.
type hookFuncs struct {
	send        func([]byte)
	established func()
	update      func(*Update)
	down        func(string)
}

func (h hookFuncs) Send(w []byte)      { h.send(w) }
func (h hookFuncs) OnEstablished()     { h.established() }
func (h hookFuncs) OnUpdate(u *Update) { h.update(u) }
func (h hookFuncs) OnDown(r string)    { h.down(r) }

// pipePair wires two sessions back-to-back through in-memory buffers,
// simulating the netsim transport.
type pipePair struct {
	a, b     *Session
	aOut     [][]byte
	bOut     [][]byte
	now      time.Time
	aUpdates []*Update
	bUpdates []*Update
	aEstab   bool
	bEstab   bool
	aDown    []string
	bDown    []string
}

func newPipePair(t *testing.T) *pipePair {
	t.Helper()
	p := &pipePair{now: time.Unix(1e9, 0)}
	p.a = NewSession(SessionConfig{
		LocalAS: 65001, PeerAS: 65002, RouterID: addr("10.0.0.1"), HoldTime: 90 * time.Second,
	}, hookFuncs{
		send:        func(w []byte) { p.aOut = append(p.aOut, w) },
		established: func() { p.aEstab = true },
		update:      func(u *Update) { p.aUpdates = append(p.aUpdates, u) },
		down:        func(r string) { p.aDown = append(p.aDown, r) },
	})
	p.b = NewSession(SessionConfig{
		LocalAS: 65002, PeerAS: 65001, RouterID: addr("10.0.0.2"), HoldTime: 30 * time.Second,
	}, hookFuncs{
		send:        func(w []byte) { p.bOut = append(p.bOut, w) },
		established: func() { p.bEstab = true },
		update:      func(u *Update) { p.bUpdates = append(p.bUpdates, u) },
		down:        func(r string) { p.bDown = append(p.bDown, r) },
	})
	return p
}

// pump delivers queued bytes in both directions until quiescent.
func (p *pipePair) pump(t *testing.T) {
	t.Helper()
	for len(p.aOut) > 0 || len(p.bOut) > 0 {
		out := p.aOut
		p.aOut = nil
		for _, w := range out {
			if err := p.b.Recv(p.now, w); err != nil {
				t.Fatalf("b.Recv: %v", err)
			}
		}
		out = p.bOut
		p.bOut = nil
		for _, w := range out {
			if err := p.a.Recv(p.now, w); err != nil {
				t.Fatalf("a.Recv: %v", err)
			}
		}
	}
}

func (p *pipePair) establish(t *testing.T) {
	t.Helper()
	p.a.Start(p.now)
	p.b.Start(p.now)
	if err := p.a.ConnUp(p.now); err != nil {
		t.Fatal(err)
	}
	if err := p.b.ConnUp(p.now); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	if p.a.State() != StateEstablished || p.b.State() != StateEstablished {
		t.Fatalf("states: a=%v b=%v", p.a.State(), p.b.State())
	}
	if !p.aEstab || !p.bEstab {
		t.Fatal("OnEstablished not fired")
	}
}

func TestSessionEstablishment(t *testing.T) {
	p := newPipePair(t)
	p.establish(t)
	// Negotiated hold time is min(90, 30) = 30s on both ends.
	if p.a.holdTime != 30*time.Second || p.b.holdTime != 30*time.Second {
		t.Fatalf("hold times: a=%v b=%v", p.a.holdTime, p.b.holdTime)
	}
	if p.a.PeerAS() != 65002 || p.b.PeerAS() != 65001 {
		t.Fatal("peer AS wrong")
	}
}

func TestUpdateDelivery(t *testing.T) {
	p := newPipePair(t)
	p.establish(t)
	u := &Update{Attrs: baseAttrs(), NLRI: []netaddr.Prefix{pfx("203.0.113.0/24")}}
	if err := p.a.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	if len(p.bUpdates) != 1 || p.bUpdates[0].NLRI[0].String() != "203.0.113.0/24" {
		t.Fatalf("updates at b: %+v", p.bUpdates)
	}
	if p.a.UpdatesOut != 1 || p.b.UpdatesIn != 1 {
		t.Fatal("counters wrong")
	}
}

func TestWrongPeerASRejected(t *testing.T) {
	p := newPipePair(t)
	// Reconfigure b to expect AS 64999.
	p.b.cfg.PeerAS = 64999
	p.a.Start(p.now)
	p.b.Start(p.now)
	_ = p.a.ConnUp(p.now)
	// a's OPEN arrives at b with AS 65001; b must reject and notify.
	out := p.aOut
	p.aOut = nil
	for _, w := range out {
		_ = p.b.Recv(p.now, w) // error expected internally
	}
	if p.b.State() != StateIdle {
		t.Fatalf("b state = %v, want Idle", p.b.State())
	}
	// b sent a NOTIFICATION.
	if len(p.bOut) == 0 {
		t.Fatal("no notification sent")
	}
	m, err := Decode(p.bOut[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := m.(*Notification); n.Code != ErrCodeOpenMessage {
		t.Fatalf("notification code %d", n.Code)
	}
}

func TestUpdateBeforeEstablishedIsFSMError(t *testing.T) {
	p := newPipePair(t)
	p.a.Start(p.now)
	_ = p.a.ConnUp(p.now)
	p.aOut = nil
	wire, _ := Encode(&Update{})
	if err := p.a.Recv(p.now, wire); err == nil {
		t.Fatal("UPDATE in OpenSent accepted")
	}
	if p.a.State() != StateIdle {
		t.Fatalf("state = %v", p.a.State())
	}
}

func TestHoldTimerExpiry(t *testing.T) {
	p := newPipePair(t)
	p.establish(t)
	p.a.Tick(p.now.Add(31 * time.Second))
	if p.a.State() != StateIdle {
		t.Fatalf("state after hold expiry = %v", p.a.State())
	}
	if len(p.aDown) == 0 {
		t.Fatal("OnDown not fired")
	}
	// The hold-timer NOTIFICATION was emitted.
	found := false
	for _, w := range p.aOut {
		if m, err := Decode(w); err == nil {
			if n, ok := m.(*Notification); ok && n.Code == ErrCodeHoldTimer {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("hold timer notification not sent")
	}
}

func TestKeepaliveRefreshesHold(t *testing.T) {
	p := newPipePair(t)
	p.establish(t)
	// Keepalives exchanged at 10s (30/3) keep the session alive past 30s.
	for i := 1; i <= 5; i++ {
		p.now = p.now.Add(10 * time.Second)
		p.a.Tick(p.now)
		p.b.Tick(p.now)
		p.pump(t)
	}
	if p.a.State() != StateEstablished || p.b.State() != StateEstablished {
		t.Fatalf("session died despite keepalives: a=%v b=%v", p.a.State(), p.b.State())
	}
}

func TestNotificationDropsSession(t *testing.T) {
	p := newPipePair(t)
	p.establish(t)
	wire, _ := Encode(&Notification{Code: ErrCodeCease})
	if err := p.a.Recv(p.now, wire); err != nil {
		t.Fatal(err)
	}
	if p.a.State() != StateIdle {
		t.Fatalf("state = %v", p.a.State())
	}
	if len(p.aDown) != 1 {
		t.Fatalf("down events: %v", p.aDown)
	}
}

func TestConnDown(t *testing.T) {
	p := newPipePair(t)
	p.establish(t)
	p.a.ConnDown("link cut")
	if p.a.State() != StateIdle || len(p.aDown) != 1 {
		t.Fatalf("state=%v downs=%v", p.a.State(), p.aDown)
	}
	// ConnDown in Idle is a no-op.
	p.a.ConnDown("again")
	if len(p.aDown) != 1 {
		t.Fatal("duplicate down event")
	}
}

func TestPartialRecv(t *testing.T) {
	p := newPipePair(t)
	p.establish(t)
	u := &Update{Attrs: baseAttrs(), NLRI: []netaddr.Prefix{pfx("203.0.113.0/24")}}
	wire, _ := Encode(u)
	// Deliver byte by byte.
	for i := range wire {
		if err := p.b.Recv(p.now, wire[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if len(p.bUpdates) != 1 {
		t.Fatalf("updates: %d", len(p.bUpdates))
	}
}

func TestSendUpdateRequiresEstablished(t *testing.T) {
	s := NewSession(SessionConfig{LocalAS: 1, RouterID: addr("1.1.1.1")}, nil)
	if err := s.SendUpdate(&Update{}); err == nil {
		t.Fatal("SendUpdate in Idle accepted")
	}
}

// TestPassiveOpen: a session that has not sent its OPEN yet (Connect
// state) must respond to a peer's OPEN with its own OPEN + KEEPALIVE and
// reach Established (the FSM's passive path).
func TestPassiveOpen(t *testing.T) {
	p := newPipePair(t)
	p.a.Start(p.now)
	p.b.Start(p.now)
	// Only a initiates; b stays passive in Connect.
	if err := p.a.ConnUp(p.now); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	if p.a.State() != StateEstablished || p.b.State() != StateEstablished {
		t.Fatalf("passive establishment failed: a=%v b=%v", p.a.State(), p.b.State())
	}
}

// TestSessionRestartAfterDown: after a session drops, Start/ConnUp must
// bring it back up cleanly (Idle → ... → Established again).
func TestSessionRestartAfterDown(t *testing.T) {
	p := newPipePair(t)
	p.establish(t)
	p.a.ConnDown("flap")
	p.b.ConnDown("flap")
	if p.a.State() != StateIdle {
		t.Fatal("not idle after down")
	}
	p.a.Start(p.now)
	p.b.Start(p.now)
	if err := p.a.ConnUp(p.now); err != nil {
		t.Fatal(err)
	}
	if err := p.b.ConnUp(p.now); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	if p.a.State() != StateEstablished || p.b.State() != StateEstablished {
		t.Fatalf("restart failed: a=%v b=%v", p.a.State(), p.b.State())
	}
}

func mustEncode(t *testing.T, m Message) []byte {
	t.Helper()
	wire, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestRecvFraming: however the transport cuts the byte stream, Recv
// processes exactly the whole messages in it, keeps a partial tail for
// the next delivery, and drops the rest of a delivery once a message has
// reset the session. The delivered bytes are never written to.
func TestRecvFraming(t *testing.T) {
	announce := func(p string) []byte {
		return mustEncode(t, &Update{Attrs: baseAttrs(), NLRI: []netaddr.Prefix{pfx(p)}})
	}
	u1, u2 := announce("203.0.113.0/24"), announce("198.51.100.0/24")
	notif := mustEncode(t, &Notification{Code: ErrCodeCease})
	badHeader := append(append([]byte(nil), marker[:]...), 0, 5, MsgUpdate) // length 5 < HeaderLen
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name       string
		deliveries [][]byte
		updates    int
		state      State
		downs      int
		err        bool // the last Recv reports an error
		notifies   bool // the session sent a NOTIFICATION
	}{
		{"two messages in one delivery", [][]byte{cat(u1, u2)}, 2, StateEstablished, 0, false, false},
		{"one message over three deliveries", [][]byte{u1[:5], u1[5:30], u1[30:]}, 1, StateEstablished, 0, false, false},
		{"a whole message and a partial one, then the rest", [][]byte{cat(u1, u2[:10]), u2[10:]}, 2, StateEstablished, 0, false, false},
		{"notification then update in one delivery", [][]byte{cat(notif, u1)}, 0, StateIdle, 1, false, false},
		{"buffered notification completed beside an update", [][]byte{notif[:7], cat(notif[7:], u1)}, 0, StateIdle, 1, false, false},
		{"bad header after a good message", [][]byte{cat(u1, badHeader)}, 1, StateIdle, 1, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newPipePair(t)
			p.establish(t)
			p.bOut = nil
			var err error
			for _, d := range c.deliveries {
				before := append([]byte(nil), d...)
				err = p.b.Recv(p.now, d)
				if !bytes.Equal(d, before) {
					t.Fatal("Recv wrote to the delivered bytes")
				}
			}
			if len(p.bUpdates) != c.updates || p.b.State() != c.state || len(p.bDown) != c.downs || (err != nil) != c.err {
				t.Fatalf("updates %d, state %v, downs %v, err %v; want %d, %v, %d downs, err %v",
					len(p.bUpdates), p.b.State(), p.bDown, err, c.updates, c.state, c.downs, c.err)
			}
			if c.updates == 2 && p.bUpdates[1].NLRI[0] != pfx("198.51.100.0/24") {
				t.Fatalf("second update announces %v", p.bUpdates[1].NLRI)
			}
			sentNotification := false
			for _, w := range p.bOut {
				sentNotification = sentNotification || w[18] == MsgNotification
			}
			if sentNotification != c.notifies {
				t.Fatalf("sent a NOTIFICATION: %v, want %v", sentNotification, c.notifies)
			}
			if c.state == StateEstablished && len(p.b.inbuf) != 0 {
				t.Fatalf("%d bytes left buffered after whole messages", len(p.b.inbuf))
			}
		})
	}
}

// TestSendCountsOnlyWhatWentOut: UpdatesOut and MsgsOut count messages
// handed to the transport, so an UPDATE that cannot be encoded, or bytes
// that are not an UPDATE, leave them (and the transport) untouched.
func TestSendCountsOnlyWhatWentOut(t *testing.T) {
	good := &Update{Attrs: baseAttrs(), NLRI: []netaddr.Prefix{pfx("203.0.113.0/24")}}
	oversized := &Update{Attrs: baseAttrs(), NLRI: good.NLRI}
	oversized.Attrs.ASPath = ASPath{{Type: ASSequence, ASNs: asns(256, 1)}}
	cases := []struct {
		name string
		send func(*Session) error
		sent uint64
	}{
		{"encodable UPDATE", func(s *Session) error { return s.SendUpdate(good) }, 1},
		{"AS_PATH segment of 256 ASNs", func(s *Session) error { return s.SendUpdate(oversized) }, 0},
		{"KEEPALIVE bytes as an UPDATE", func(s *Session) error { return s.SendUpdateWire(mustEncode(t, &Keepalive{})) }, 0},
		{"truncated bytes as an UPDATE", func(s *Session) error { return s.SendUpdateWire(mustEncode(t, good)[:10]) }, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newPipePair(t)
			p.establish(t)
			p.aOut = nil
			updatesOut, msgsOut := p.a.UpdatesOut, p.a.MsgsOut
			err := c.send(p.a)
			if (err == nil) != (c.sent == 1) {
				t.Fatalf("err = %v", err)
			}
			if p.a.UpdatesOut != updatesOut+c.sent || p.a.MsgsOut != msgsOut+c.sent || uint64(len(p.aOut)) != c.sent {
				t.Fatalf("UpdatesOut +%d, MsgsOut +%d, transport got %d; want +%d each",
					p.a.UpdatesOut-updatesOut, p.a.MsgsOut-msgsOut, len(p.aOut), c.sent)
			}
		})
	}
}

// nopHooks is a SessionHooks that ignores everything.
type nopHooks struct{}

func (nopHooks) Send([]byte)      {}
func (nopHooks) OnEstablished()   {}
func (nopHooks) OnUpdate(*Update) {}
func (nopHooks) OnDown(string)    {}

// TestRecvAllocatesNoMoreThanDecode: a whole UPDATE delivered to an idle
// buffer is framed where it lies — Recv costs what decoding it costs.
func TestRecvAllocatesNoMoreThanDecode(t *testing.T) {
	s := NewSession(SessionConfig{LocalAS: 65002, PeerAS: 65001, RouterID: addr("10.0.0.2")}, nopHooks{})
	s.RestoreEstablished(0, 0)
	wire := mustEncode(t, &Update{Attrs: baseAttrs(), NLRI: []netaddr.Prefix{pfx("203.0.113.0/24")}})
	decode := testing.AllocsPerRun(200, func() { _, _ = Decode(wire) })
	recv := testing.AllocsPerRun(200, func() {
		if err := s.Recv(time.Time{}, wire); err != nil {
			t.Fatal(err)
		}
	})
	if recv > decode {
		t.Fatalf("Recv allocates %v objects per UPDATE, Decode %v", recv, decode)
	}
}

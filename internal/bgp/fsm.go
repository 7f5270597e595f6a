package bgp

import (
	"fmt"
	"time"

	"dice/internal/concolic"
	"dice/internal/netaddr"
)

// State is a BGP session FSM state (RFC 4271 §8.2.2).
type State int

// FSM states.
const (
	StateIdle State = iota
	StateConnect
	StateActive
	StateOpenSent
	StateOpenConfirm
	StateEstablished
)

var stateNames = [...]string{"Idle", "Connect", "Active", "OpenSent", "OpenConfirm", "Established"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// SessionConfig parameterizes one peering session.
type SessionConfig struct {
	LocalAS  uint16
	PeerAS   uint16 // 0 = accept any (not recommended; used in tests)
	RouterID netaddr.Addr
	HoldTime time.Duration // proposed hold time; 0 = 90s default
}

// SessionHooks is what a Session calls on its owner: one value per
// peering (the router's per-peer state implements it), so a session costs
// no closures. Send must deliver a complete wire-encoded message to the
// peer. The bytes are handed over: nothing writes them again, so the
// transport may keep them without copying, but they may be shared with
// other sessions, so it must not write them either. OnEstablished,
// OnUpdate and OnDown notify the owner; the UPDATE of a session with a
// Decoder is valid only until OnUpdate returns. A nil SessionHooks
// discards everything.
type SessionHooks interface {
	Send(wire []byte)
	OnEstablished()
	OnUpdate(*Update)
	OnDown(reason string)
}

// Session is one BGP peering's finite-state machine. It is deliberately
// transport-agnostic: the owner feeds it transport events (ConnUp,
// Recv bytes, Tick for timers) and it emits messages through hooks.Send.
// Not safe for concurrent use; the router serializes access.
type Session struct {
	cfg   SessionConfig
	hooks SessionHooks
	dec   *Decoder // nil: every UPDATE is decoded into a new Update

	state    State
	peerOpen *Open
	inbuf    []byte // a partial message carried over to the next Recv
	resets   uint64 // bumped by reset: Recv drops the rest of a delivery after one

	holdTime      time.Duration // negotiated
	holdDeadline  time.Time
	keepaliveTime time.Duration
	keepaliveDue  time.Time

	// Counters for the experiment harness.
	UpdatesIn  uint64
	UpdatesOut uint64
	MsgsIn     uint64
	MsgsOut    uint64
}

// NewSession creates a session in Idle.
func NewSession(cfg SessionConfig, hooks SessionHooks) *Session {
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 90 * time.Second
	}
	return &Session{cfg: cfg, hooks: hooks, state: StateIdle}
}

// SetDecoder makes the session decode the UPDATEs it receives through
// dec (Decoder).
func (s *Session) SetDecoder(dec *Decoder) { s.dec = dec }

// State returns the current FSM state.
func (s *Session) State() State { return s.state }

// PeerAS returns the AS number learned from the peer's OPEN (0 before).
func (s *Session) PeerAS() uint16 {
	if s.peerOpen == nil {
		return s.cfg.PeerAS
	}
	return s.peerOpen.AS
}

// Start moves Idle → Connect (ManualStart event).
func (s *Session) Start(now time.Time) {
	if s.state != StateIdle {
		return
	}
	s.state = StateConnect
}

// ConnUp signals that the transport connection is established
// (TcpConnectionConfirmed): the session sends OPEN and enters OpenSent.
func (s *Session) ConnUp(now time.Time) error {
	if s.state != StateConnect && s.state != StateActive {
		return fmt.Errorf("bgp: ConnUp in state %v", s.state)
	}
	if err := s.send(&Open{
		Version:  4,
		AS:       s.cfg.LocalAS,
		HoldTime: uint16(s.cfg.HoldTime / time.Second),
		RouterID: s.cfg.RouterID,
	}); err != nil {
		return err
	}
	s.state = StateOpenSent
	// RFC 4271: set hold timer to a large value while waiting for OPEN.
	s.holdDeadline = now.Add(4 * time.Minute)
	return nil
}

// ConnDown signals transport loss.
func (s *Session) ConnDown(reason string) {
	if s.state == StateIdle {
		return
	}
	prev := s.state
	s.reset()
	if prev == StateEstablished && s.hooks != nil {
		s.hooks.OnDown("connection down: " + reason)
	}
}

// Recv feeds raw bytes from the transport. Complete messages are framed
// and processed; a trailing partial message is buffered. data is only
// read: when nothing is buffered, messages are framed straight from it
// and only a partial tail is copied. A message that resets the session (a
// NOTIFICATION, a protocol error) drops the rest of the delivery.
func (s *Session) Recv(now time.Time, data []byte) error {
	if len(s.inbuf) > 0 {
		s.inbuf = append(s.inbuf, data...)
		data = s.inbuf
	}
	resets := s.resets
	for {
		msg, rest, err := Frame(data)
		if err == ErrTruncated {
			s.inbuf = append(s.inbuf[:0], rest...)
			return nil
		}
		if err != nil {
			s.notifyAndClose(err)
			return err
		}
		data = rest
		if err := s.handleWire(now, msg); err != nil {
			return err
		}
		if s.resets != resets {
			return nil
		}
	}
}

func (s *Session) handleWire(now time.Time, wire []byte) error {
	m, err := decode(wire, s.dec)
	if err != nil {
		s.notifyAndClose(err)
		return err
	}
	s.MsgsIn++
	switch msg := m.(type) {
	case *Open:
		return s.handleOpen(now, msg)
	case *Keepalive:
		return s.handleKeepalive(now)
	case *Update:
		return s.handleUpdate(now, msg)
	case *Notification:
		prev := s.state
		s.reset()
		if s.hooks != nil && prev != StateIdle {
			s.hooks.OnDown(fmt.Sprintf("notification received: code %d subcode %d", msg.Code, msg.Subcode))
		}
		return nil
	}
	return nil
}

func (s *Session) handleOpen(now time.Time, o *Open) error {
	if s.state != StateOpenSent && s.state != StateConnect && s.state != StateActive {
		err := protoErr(ErrCodeFSM, 0, "OPEN in state %v", s.state)
		s.notifyAndClose(err)
		return err
	}
	if err := o.header().CheckPeerAS(s.cfg.PeerAS, concolic.ConcreteBrancher{}); err != nil {
		s.notifyAndClose(err)
		return err
	}
	s.peerOpen = o

	// Negotiate hold time: the smaller of proposed values (§4.2).
	peerHold := time.Duration(o.HoldTime) * time.Second
	s.holdTime = s.cfg.HoldTime
	if peerHold < s.holdTime {
		s.holdTime = peerHold
	}
	if s.holdTime > 0 {
		s.keepaliveTime = s.holdTime / 3
		s.holdDeadline = now.Add(s.holdTime)
		s.keepaliveDue = now.Add(s.keepaliveTime)
	}

	if s.state != StateOpenSent {
		// Passive open: we had not sent our OPEN yet.
		if err := s.send(&Open{
			Version:  4,
			AS:       s.cfg.LocalAS,
			HoldTime: uint16(s.cfg.HoldTime / time.Second),
			RouterID: s.cfg.RouterID,
		}); err != nil {
			return err
		}
	}
	if err := s.send(&Keepalive{}); err != nil {
		return err
	}
	s.state = StateOpenConfirm
	return nil
}

func (s *Session) handleKeepalive(now time.Time) error {
	switch s.state {
	case StateOpenConfirm:
		s.state = StateEstablished
		if s.holdTime > 0 {
			s.holdDeadline = now.Add(s.holdTime)
		}
		if s.hooks != nil {
			s.hooks.OnEstablished()
		}
	case StateEstablished:
		if s.holdTime > 0 {
			s.holdDeadline = now.Add(s.holdTime)
		}
	default:
		err := protoErr(ErrCodeFSM, 0, "KEEPALIVE in state %v", s.state)
		s.notifyAndClose(err)
		return err
	}
	return nil
}

func (s *Session) handleUpdate(now time.Time, u *Update) error {
	if s.state != StateEstablished {
		err := protoErr(ErrCodeFSM, 0, "UPDATE in state %v", s.state)
		s.notifyAndClose(err)
		return err
	}
	s.UpdatesIn++
	if s.holdTime > 0 {
		s.holdDeadline = now.Add(s.holdTime)
	}
	if s.hooks != nil {
		s.hooks.OnUpdate(u)
	}
	return nil
}

// SendUpdate encodes an UPDATE and transmits it on an established
// session through SendUpdateWire.
func (s *Session) SendUpdate(u *Update) error {
	wire, err := Encode(u)
	if err != nil {
		return err
	}
	return s.SendUpdateWire(wire)
}

// SendUpdateWire transmits an already-encoded UPDATE on an established
// session and counts it. The bytes are handed to the transport as they
// are, so one encoding can go to every peer that receives the same
// UPDATE; neither the session nor the transport may modify them.
func (s *Session) SendUpdateWire(wire []byte) error {
	if s.state != StateEstablished {
		return protoErr(ErrCodeFSM, 0, "SendUpdate in state %v", s.state)
	}
	if len(wire) < HeaderLen || wire[18] != MsgUpdate {
		return fmt.Errorf("bgp: SendUpdateWire given a non-UPDATE message")
	}
	s.UpdatesOut++
	s.transmit(wire)
	return nil
}

// Tick advances timers: expires the hold timer (sending the mandated
// NOTIFICATION) and emits keepalives when due.
func (s *Session) Tick(now time.Time) {
	if s.state == StateIdle || s.holdTime == 0 {
		return
	}
	if !s.holdDeadline.IsZero() && now.After(s.holdDeadline) {
		s.notifyAndClose(protoErr(ErrCodeHoldTimer, 0, "hold timer expired"))
		return
	}
	if s.state == StateEstablished && !s.keepaliveDue.IsZero() && !now.Before(s.keepaliveDue) {
		_ = s.send(&Keepalive{})
		s.keepaliveDue = now.Add(s.keepaliveTime)
	}
}

// send encodes and transmits a message.
func (s *Session) send(m Message) error {
	wire, err := Encode(m)
	if err != nil {
		return err
	}
	s.transmit(wire)
	return nil
}

// transmit counts and hands one encoded message to the transport.
func (s *Session) transmit(wire []byte) {
	s.MsgsOut++
	if s.hooks != nil {
		s.hooks.Send(wire)
	}
}

// CloneStateFrom copies the observable session state of orig into s: FSM
// state, negotiated timers, peer identity and counters. Used when forking
// a router checkpoint — the clone's sessions must look Established so
// exploration exercises the same code paths the live process would, while
// the clone's transport keeps its traffic off the wire.
func (s *Session) CloneStateFrom(orig *Session) {
	s.state = orig.state
	s.peerOpen = orig.peerOpen // immutable after decode
	s.holdTime = orig.holdTime
	s.keepaliveTime = orig.keepaliveTime
	s.holdDeadline = orig.holdDeadline
	s.keepaliveDue = orig.keepaliveDue
	s.UpdatesIn = orig.UpdatesIn
	s.UpdatesOut = orig.UpdatesOut
	s.MsgsIn = orig.MsgsIn
	s.MsgsOut = orig.MsgsOut
	s.inbuf = append([]byte(nil), orig.inbuf...)
}

// RestoreEstablished forces the session into Established with the given
// counters — used when rebuilding a router from a serialized checkpoint
// (the restored process behaves as the forked original would: sessions
// up, traffic diverted by the transport).
func (s *Session) RestoreEstablished(updatesIn, updatesOut uint64) {
	s.state = StateEstablished
	s.UpdatesIn = updatesIn
	s.UpdatesOut = updatesOut
	s.holdTime = 0 // timers disabled; restored clones are not ticked
}

// notifyAndClose sends the NOTIFICATION for a protocol error and drops to
// Idle.
func (s *Session) notifyAndClose(err error) {
	var code, subcode uint8 = ErrCodeCease, 0
	if pe, ok := err.(*Error); ok {
		code, subcode = pe.Code, pe.Subcode
	}
	_ = s.send(&Notification{Code: code, Subcode: subcode})
	prev := s.state
	s.reset()
	if s.hooks != nil && prev != StateIdle {
		s.hooks.OnDown(err.Error())
	}
}

func (s *Session) reset() {
	s.resets++
	s.state = StateIdle
	s.peerOpen = nil
	s.inbuf = nil
	s.holdDeadline = time.Time{}
	s.keepaliveDue = time.Time{}
}

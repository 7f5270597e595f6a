package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dice/internal/telemetry"
)

// ErrClientBroken marks a connection poisoned by a protocol error: a
// response whose ID matches no pending request, a garbled frame, or an
// I/O failure. Once broken, the connection is closed, every in-flight
// call fails with an error wrapping this sentinel, and all later calls
// fail immediately — the caller must reconnect, because a desynchronized
// byte stream cannot be trusted for even one more frame.
var ErrClientBroken = errors.New("dist: connection broken")

// ErrCallTimeout marks a single call that outlived its deadline. Unlike
// ErrClientBroken it does NOT poison the connection: the stream is still
// framed correctly, only this answer is late. The client forgets the
// pending ID and silently discards the response if it ever arrives, so
// later calls proceed normally. Callers that retry a timed-out call must
// make it idempotent (the coordinator keys injections and replays for
// exactly this reason) — the agent may have executed the original.
var ErrCallTimeout = errors.New("dist: call timed out")

// BrokenError is the concrete error a poisoned connection reports. It
// satisfies errors.Is(err, ErrClientBroken) and unwraps to the root
// cause, and names the offending frame ID when one is known (0 when the
// failure wasn't tied to a frame — a dial-level I/O error, say).
type BrokenError struct {
	// Cause is the underlying failure that poisoned the connection.
	Cause error
	// FrameID is the response frame that triggered the poison, 0 if the
	// failure was not attributable to a specific frame.
	FrameID uint64
}

func (e *BrokenError) Error() string {
	if e.FrameID != 0 {
		return fmt.Sprintf("%v (frame id %d): %v", ErrClientBroken, e.FrameID, e.Cause)
	}
	return fmt.Sprintf("%v: %v", ErrClientBroken, e.Cause)
}

// Unwrap exposes both the ErrClientBroken sentinel (for errors.Is) and
// the root cause (for errors.As / errors.Is on the original error).
func (e *BrokenError) Unwrap() []error { return []error{ErrClientBroken, e.Cause} }

// Pending is an in-flight call started with Client.Go.
type Pending struct {
	id     uint64
	method string
	result any
	errc   chan error  // buffered 1; receives exactly one completion
	timer  *time.Timer // deadline, nil when the client has no Timeout

	// Telemetry (zero/nil when none is attached): start stamps latency
	// observations; span is the per-call trace span, ended on completion,
	// timeout or poison.
	start time.Time
	span  *telemetry.Span
}

// Wait blocks until the response arrives (or the connection breaks, or
// the deadline passes) and returns the call's error.
func (p *Pending) Wait() error { return <-p.errc }

// Client speaks the wire protocol to one agent. Calls are pipelined:
// any number of requests may be in flight per connection, a reader
// goroutine matches responses to callers by ID. Call gives the
// synchronous one-at-a-time behaviour; Go/Wait overlap round trips.
// Handshake checks the peer speaks this build's ProtoVersion.
type Client struct {
	conn io.ReadWriteCloser

	// Timeout bounds each call from send to response (0 = no deadline).
	// Set it before the first call; a timed-out call fails with
	// ErrCallTimeout without poisoning the connection.
	Timeout time.Duration

	// Session is the coordinator's session nonce, forwarded in the hello
	// so the agent can scope its idempotency memos to one coordinator
	// session (see HelloParams.Session). Set it before Handshake; 0 sends
	// no nonce and leaves the agent's memos alone.
	Session uint64

	// Properties is the coordinator's property set in canonical source
	// form, forwarded in the hello so the agent can compile it and answer
	// inject_witness WantProps requests (see HelloParams.Properties). Set
	// it before Handshake; empty ships nothing.
	Properties []string

	writeMu sync.Mutex // one frame write at a time

	mu        sync.Mutex
	pending   map[uint64]*Pending
	abandoned map[uint64]struct{} // timed-out IDs whose late answers are discarded
	next      uint64
	broken    error

	// Telemetry, attached via setTelemetry after the handshake and read
	// under mu wherever the read loop or timers may race the attach.
	tm     *Metrics
	tracer *telemetry.Tracer
	node   string

	readerOnce sync.Once
}

// setTelemetry attaches metrics, tracing and the node identity to this
// client. Calls issued afterwards are instrumented; safe to call while
// the read loop is running (all access is under mu).
func (c *Client) setTelemetry(tm *Metrics, tracer *telemetry.Tracer, node string) {
	c.mu.Lock()
	c.tm, c.tracer, c.node = tm, tracer, node
	c.mu.Unlock()
}

// NewClient wraps an established connection.
func NewClient(conn io.ReadWriteCloser) *Client {
	return &Client{
		conn:      conn,
		pending:   make(map[uint64]*Pending),
		abandoned: make(map[uint64]struct{}),
	}
}

// Handshake performs the hello exchange and returns the peer's hello so
// the caller can validate node and topology identity. A peer speaking
// another protocol version fails the handshake with an error naming both
// versions — an application error, so callers do not retry it — and the
// connection is poisoned: none of its later frames could be trusted.
func (c *Client) Handshake() (HelloResult, error) {
	var hr HelloResult
	if err := c.Call(MethodHello, &HelloParams{Version: ProtoVersion, Session: c.Session, Properties: c.Properties}, &hr); err != nil {
		return HelloResult{}, err
	}
	if hr.Version != ProtoVersion {
		err := fmt.Errorf("dist: wire protocol v%d, peer %q answered v%d", ProtoVersion, hr.Node, hr.Version)
		c.fail(0, err)
		return HelloResult{}, err
	}
	return hr, nil
}

// Call invokes method with params, decoding the response into result
// (which may be nil when the caller only cares about success).
func (c *Client) Call(method string, params, result any) error {
	return c.Go(method, params, result).Wait()
}

// Go starts a call without waiting for the response. result (if
// non-nil) is written before Wait returns; it must not be read until
// then. params and result must be wire message types.
func (c *Client) Go(method string, params, result any) *Pending {
	p := &Pending{method: method, result: result, errc: make(chan error, 1)}
	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		p.errc <- err
		return p
	}
	c.next++
	id := c.next
	p.id = id
	c.pending[id] = p
	tm := c.tm
	if tm != nil || c.tracer != nil {
		p.start = time.Now()
		p.span = c.tracer.Start("rpc/"+c.node, method)
	}
	c.mu.Unlock()

	// Register before writing, then start the reader: the response may
	// race back before this goroutine regains the CPU.
	c.readerOnce.Do(func() { go c.readLoop() })

	frame, err := encodeRequest(id, method, params)
	if err != nil {
		// An unencodable request is a caller bug, not stream corruption:
		// nothing hit the wire, so the connection stays healthy.
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		p.errc <- err
		return p
	}
	tm.clientSent(method, len(frame)-frameHeader)
	c.writeMu.Lock()
	werr := sendFrame(c.conn, frame)
	c.writeMu.Unlock()
	if werr != nil {
		// fail delivers the broken error to every pending call,
		// including this one.
		c.fail(id, fmt.Errorf("send %s: %v", method, werr))
		return p
	}
	if d := c.Timeout; d > 0 {
		c.mu.Lock()
		// The response (or a poison) may have completed the call while
		// the write lock was held; only arm a timer for a call that is
		// still in flight.
		if _, live := c.pending[id]; live {
			p.timer = time.AfterFunc(d, func() { c.expire(id, method, d) })
		}
		c.mu.Unlock()
	}
	return p
}

// maxAbandoned caps the abandoned-ID set. Entries normally leave when
// the late answer arrives, but a request lost before reaching the agent
// never gets one, so repeated timeouts would otherwise grow the set for
// the connection's lifetime. When the cap is hit the oldest (smallest)
// ID is evicted: responses arrive in request order on a pipelined
// stream, so the oldest entry is the one whose answer is most
// overdue — if it does show up after eviction, the unknown ID poisons
// the connection and the caller's recovery ladder reconnects.
const maxAbandoned = 1024

// expire times out one pending call: the ID moves to the abandoned set
// so the reader discards the late answer instead of poisoning on an
// unknown ID, and the caller gets ErrCallTimeout. The connection itself
// stays healthy.
func (c *Client) expire(id uint64, method string, d time.Duration) {
	c.mu.Lock()
	p, ok := c.pending[id]
	if !ok {
		c.mu.Unlock()
		return // answered (or poisoned) just before the timer fired
	}
	delete(c.pending, id)
	c.abandoned[id] = struct{}{}
	if len(c.abandoned) > maxAbandoned {
		oldest := id
		for a := range c.abandoned {
			if a < oldest {
				oldest = a
			}
		}
		delete(c.abandoned, oldest)
	}
	tm := c.tm
	c.mu.Unlock()
	tm.clientError(method, "timeout")
	p.span.End()
	p.errc <- fmt.Errorf("%w: %s (id %d) after %v", ErrCallTimeout, method, id, d)
}

// Close closes the underlying connection. In-flight calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// fail poisons the connection: records the sticky error (wrapping the
// cause, with the offending frame ID when known), closes the transport,
// and completes every pending call with the broken error.
func (c *Client) fail(frameID uint64, cause error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = &BrokenError{Cause: cause, FrameID: frameID}
	}
	err := c.broken
	pend := c.pending
	c.pending = make(map[uint64]*Pending)
	tm := c.tm
	c.mu.Unlock()
	c.conn.Close()
	for _, p := range pend {
		if p.timer != nil {
			p.timer.Stop()
		}
		tm.clientError(p.method, "broken")
		p.span.End()
		p.errc <- err
	}
}

// readLoop drains response frames and completes pending calls. Any
// framing-level problem poisons the connection and stops the loop.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, frameReadBuffer)
	for {
		payload, err := readPayload(br)
		if err != nil {
			c.fail(0, fmt.Errorf("recv: %v", err))
			return
		}
		id, errMsg, body, err := parseResponse(payload)
		if err != nil {
			c.fail(id, fmt.Errorf("garbled response: %v", err))
			return
		}
		c.mu.Lock()
		p, ok := c.pending[id]
		delete(c.pending, id)
		tm := c.tm
		if !ok {
			// A late answer to a timed-out call is expected and harmless:
			// drop the body undecoded and keep reading. Any other unknown
			// ID means the stream is desynchronized.
			if _, late := c.abandoned[id]; late {
				delete(c.abandoned, id)
				c.mu.Unlock()
				continue
			}
			c.mu.Unlock()
			c.fail(id, fmt.Errorf("response id %d matches no pending request", id))
			return
		}
		c.mu.Unlock()
		if p.timer != nil {
			p.timer.Stop()
		}
		tm.clientDone(p.method, p.start, len(payload))
		p.span.End()
		callErr := c.complete(p, errMsg, body)
		p.errc <- callErr
		if callErr != nil && errors.Is(callErr, ErrClientBroken) {
			return
		}
	}
}

// complete decodes one response into its pending call's result. A body
// that fails to decode poisons the connection (the stream can no longer
// be trusted) and returns the broken error for this call too.
func (c *Client) complete(p *Pending, errMsg string, body []byte) error {
	if errMsg != "" {
		return fmt.Errorf("dist: %s: %s", p.method, errMsg)
	}
	if p.result == nil {
		return nil
	}
	msg, ok := p.result.(message)
	if !ok {
		return fmt.Errorf("dist: %s result type %T has no wire decoding", p.method, p.result)
	}
	if err := decodeBody(body, msg); err != nil {
		c.fail(p.id, fmt.Errorf("decode %s result: %v", p.method, err))
		c.mu.Lock()
		err = c.broken
		c.mu.Unlock()
		return err
	}
	return nil
}

// encodeRequest renders one request frame (see newFrame). params may be
// nil for parameterless methods.
func encodeRequest(id uint64, method string, params any) ([]byte, error) {
	var msg message
	if params != nil {
		m, ok := params.(message)
		if !ok {
			return nil, fmt.Errorf("dist: %s params type %T has no wire encoding", method, params)
		}
		msg = m
	}
	return appendRequest(newFrame(), id, method, msg)
}

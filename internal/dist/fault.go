package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"time"

	"dice/internal/telemetry"
)

// Fault injection for the chaos suite: a FaultDialer wraps any Dialer
// and returns connections that misbehave on schedule — deterministic
// and seeded, so a failing chaos run replays exactly. Faults fire on
// the coordinator's read side (the response stream), which is where
// every failure class the client must survive manifests: a dropped
// connection, a response delayed past the call deadline, a garbled
// frame, a connection killed mid-frame.

// FaultKind is one injected failure mode.
type FaultKind int

const (
	// FaultNone does nothing (a disabled spec).
	FaultNone FaultKind = iota
	// FaultDrop closes the connection before the target frame is
	// delivered: the client reader fails, the connection poisons, the
	// coordinator reconnects.
	FaultDrop
	// FaultDelay stalls the target frame past the RPC deadline: the
	// call times out (without poisoning), and the coordinator's retry
	// path — not the reconnect path — must converge.
	FaultDelay
	// FaultGarble flips a byte in the target frame's payload: the
	// client's codec rejects it and poisons the connection.
	FaultGarble
	// FaultKill delivers the frame header and half the payload, then
	// closes: the reader sees an unexpected EOF mid-frame.
	FaultKill
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultGarble:
		return "garble"
	case FaultKill:
		return "kill"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultSpec schedules one fault: on the Conn-th connection this dialer
// produces (0-based), sabotage the Frame-th inbound frame (1-based —
// frame 1 is the hello response, so specs usually target ≥ 2).
type FaultSpec struct {
	Conn  int
	Frame int
	Kind  FaultKind
}

// FaultPlan is the deterministic chaos schedule for one node's dialer.
type FaultPlan struct {
	// Delay is how long FaultDelay stalls the target frame; pick it
	// comfortably past the client's RPC deadline.
	Delay time.Duration
	// Specs are the scheduled faults. At most one fires per connection
	// (the first matching spec).
	Specs []FaultSpec
	// FailDialsFrom, when ≥ 0, makes every dial with index ≥ its value
	// fail outright — the "agent stays dead" schedule that forces the
	// coordinator through its whole reconnect budget and into the
	// degraded fallback.
	FailDialsFrom int
}

// RandomFaultPlan derives one node's plan from a seed: one fault of a
// seed-chosen kind on the first connection, at an early frame past the
// hello exchange — every node gets hit at least once per round. The
// derivation hashes the node name so different nodes draw different
// kinds from the same seed, and the same (seed, node) always draws the
// same plan.
func RandomFaultPlan(seed int64, node string, delay time.Duration) *FaultPlan {
	h := fnv.New64a()
	h.Write([]byte(node))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	kinds := []FaultKind{FaultDrop, FaultDelay, FaultGarble, FaultKill}
	return &FaultPlan{
		Delay: delay,
		Specs: []FaultSpec{{
			Conn:  0,
			Frame: 2 + rng.Intn(6), // past the hello response
			Kind:  kinds[rng.Intn(len(kinds))],
		}},
		FailDialsFrom: -1,
	}
}

// FaultDialer wraps an inner Dialer, counting dials and arming each
// produced connection with its scheduled fault (if any).
type FaultDialer struct {
	Inner Dialer
	Plan  *FaultPlan
	// Faults, when set, counts every fault that actually fires, labeled
	// by kind — the chaos suite asserts its injections through /metrics
	// instead of groveling through logs. Register one per fleet with
	// ChaosFaultCounter.
	Faults *telemetry.CounterVec

	mu    sync.Mutex
	dials int
}

// Dials reports how many connections this dialer has produced.
func (d *FaultDialer) Dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials
}

// Dial implements Dialer.
func (d *FaultDialer) Dial() (io.ReadWriteCloser, error) {
	d.mu.Lock()
	idx := d.dials
	d.dials++
	d.mu.Unlock()
	if d.Plan.FailDialsFrom >= 0 && idx >= d.Plan.FailDialsFrom {
		return nil, fmt.Errorf("dist: fault injection: dial %d refused", idx)
	}
	conn, err := d.Inner.Dial()
	if err != nil {
		return nil, err
	}
	for _, spec := range d.Plan.Specs {
		if spec.Conn == idx && spec.Kind != FaultNone {
			return &faultConn{inner: conn, spec: spec, delay: d.Plan.Delay, faults: d.Faults}, nil
		}
	}
	return conn, nil
}

// faultConn applies one scheduled fault to the read side of a
// connection. It re-frames the inbound stream: whole frames are read
// from the inner connection, sabotaged when the schedule says so, and
// re-serialized for the caller — so a fault lands on an exact frame
// boundary (or deliberately inside one, for FaultKill) regardless of
// how the transport chunks reads. Writes pass through untouched.
type faultConn struct {
	inner  io.ReadWriteCloser
	spec   FaultSpec
	delay  time.Duration
	faults *telemetry.CounterVec

	frame int          // inbound frames read so far
	buf   bytes.Reader // re-serialized bytes awaiting the caller
	err   error        // sticky: surfaced once buf drains
}

func (f *faultConn) Read(p []byte) (int, error) {
	for f.buf.Len() == 0 {
		if f.err != nil {
			return 0, f.err
		}
		payload, err := readPayload(f.inner)
		if err != nil {
			return 0, err
		}
		f.frame++
		var out []byte
		if f.frame == f.spec.Frame {
			f.faults.With(f.spec.Kind.String()).Inc()
			switch f.spec.Kind {
			case FaultDrop:
				f.err = fmt.Errorf("dist: fault injection: connection dropped before frame %d", f.frame)
				f.inner.Close()
				return 0, f.err
			case FaultDelay:
				time.Sleep(f.delay)
				out = frameBytes(payload)
			case FaultGarble:
				// Flipping the payload's first octet costs the response its
				// kind byte: the client must poison, not guess.
				payload[0] ^= 0xff
				out = frameBytes(payload)
			case FaultKill:
				whole := frameBytes(payload)
				out = whole[:4+len(payload)/2]
				f.err = fmt.Errorf("dist: fault injection: connection killed mid-frame %d", f.frame)
				f.inner.Close()
			default:
				out = frameBytes(payload)
			}
		} else {
			out = frameBytes(payload)
		}
		f.buf.Reset(out)
	}
	return f.buf.Read(p)
}

func (f *faultConn) Write(p []byte) (int, error) { return f.inner.Write(p) }
func (f *faultConn) Close() error                { return f.inner.Close() }

// frameBytes re-serializes one payload with its length prefix.
func frameBytes(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out[:4], uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

// LatencyDialer wraps an inner Dialer and stalls every inbound frame by
// RTT — a deterministic stand-in for a wide-area link. Replica pools
// exist to push exploration outside the node's administrative domain,
// so their realistic cost model is "every call pays a WAN round trip";
// the replica-scaling benchmark runs its pool behind this dialer, and
// the speedup it measures is the pool hiding those round trips behind
// each other, which survives even a single-core host. Like faultConn,
// the stall lands on exact frame boundaries regardless of transport
// chunking; writes pass through untouched.
type LatencyDialer struct {
	Inner Dialer
	RTT   time.Duration
}

// Dial implements Dialer.
func (d LatencyDialer) Dial() (io.ReadWriteCloser, error) {
	conn, err := d.Inner.Dial()
	if err != nil {
		return nil, err
	}
	return &latencyConn{inner: conn, rtt: d.RTT}, nil
}

type latencyConn struct {
	inner io.ReadWriteCloser
	rtt   time.Duration
	buf   bytes.Reader
}

func (l *latencyConn) Read(p []byte) (int, error) {
	for l.buf.Len() == 0 {
		payload, err := readPayload(l.inner)
		if err != nil {
			return 0, err
		}
		time.Sleep(l.rtt)
		l.buf.Reset(frameBytes(payload))
	}
	return l.buf.Read(p)
}

func (l *latencyConn) Write(p []byte) (int, error) { return l.inner.Write(p) }
func (l *latencyConn) Close() error                { return l.inner.Close() }

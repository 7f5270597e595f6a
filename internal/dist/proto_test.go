package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dice/internal/netaddr"
)

// writePayload frames and sends an already-encoded payload, the way the
// hand-rolled servers in these tests answer.
func writePayload(w io.Writer, body []byte) error {
	return sendFrame(w, append(newFrame(), body...))
}

// dialCounter counts the dials Connect or a replica pool spends on one
// peer.
type dialCounter struct {
	Dialer
	n atomic.Int64
}

func (d *dialCounter) Dial() (io.ReadWriteCloser, error) {
	d.n.Add(1)
	return d.Dialer.Dial()
}

// helloStub is a peer that answers the hello claiming the given protocol
// version, then holds the connection until the client drops it.
type helloStub struct {
	node, topology string
	version        int
}

func (s helloStub) Dial() (io.ReadWriteCloser, error) {
	cli, srv := net.Pipe()
	go func() {
		defer srv.Close()
		payload, err := readPayload(srv)
		if err != nil {
			return
		}
		id, _, _, err := parseRequest(payload)
		if err != nil {
			return
		}
		hello := &HelloResult{Node: s.node, Topology: s.topology, Version: s.version}
		if writePayload(srv, appendResponse(nil, id, "", hello)) == nil {
			_, _ = io.Copy(io.Discard, srv)
		}
	}()
	return cli, nil
}

// skewDialer shifts the version the client's hello carries by delta, so
// a real server sees a client from another protocol version.
type skewDialer struct {
	inner Dialer
	delta int
}

func (d skewDialer) Dial() (io.ReadWriteCloser, error) {
	conn, err := d.inner.Dial()
	if err != nil {
		return nil, err
	}
	return &skewConn{ReadWriteCloser: conn, delta: d.delta}, nil
}

type skewConn struct {
	io.ReadWriteCloser
	delta int
	done  bool
}

func (c *skewConn) Write(p []byte) (int, error) {
	if c.done {
		return c.ReadWriteCloser.Write(p)
	}
	c.done = true
	// The hello is the connection's first frame: length prefix, kind
	// octet, request id 1, method code, then the one-octet version.
	q := append([]byte(nil), p...)
	q[frameHeader+3] = byte(int(q[frameHeader+3]) + c.delta)
	if _, err := c.ReadWriteCloser.Write(q); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestHelloVersionMismatch is the fail-fast contract that replaced
// negotiation: a peer one protocol version off — a stub answering the
// hello with the wrong version, or a real agent or replica receiving
// one — fails Connect with both versions in the error after exactly one
// dial (an application error burns no reconnect budget), and costs a
// replica pool exactly one dial before the round degrades to its agents.
func TestHelloVersionMismatch(t *testing.T) {
	leakCheck(t)
	topo := leakTopo3()
	ag, err := NewAgent(topo, "provider")
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []int{-1, +1} {
		mine, theirs := fmt.Sprintf("v%d", ProtoVersion), fmt.Sprintf("v%d", ProtoVersion+delta)
		peers := []struct {
			name string
			d    Dialer
			says string
		}{
			{"stub", helloStub{node: "provider", topology: topo.Name, version: ProtoVersion + delta}, "answered " + theirs},
			{"agent", skewDialer{Loopback{Agent: ag}, delta}, "this agent speaks " + mine},
			{"replica", skewDialer{ReplicaLoopback{Replica: NewReplica()}, delta}, "this replica speaks " + mine},
		}
		for _, p := range peers {
			t.Run(p.name+map[int]string{-1: "-older", +1: "-newer"}[delta], func(t *testing.T) {
				dials := &dialCounter{Dialer: p.d}
				_, err := Connect(topo, fedOpts(), []Dialer{dials}, WithRetryPolicy(chaosPolicy()))
				if err == nil {
					t.Fatal("Connect accepted a peer on another protocol version")
				}
				for _, want := range []string{mine, theirs, p.says} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("Connect error %q does not contain %q", err, want)
					}
				}
				if n := dials.n.Load(); n != 1 {
					t.Errorf("Connect dialed the mismatched peer %d times, want 1", n)
				}

				dials = &dialCounter{Dialer: p.d}
				pool := &ReplicaPool{Dialers: []Dialer{dials}}
				coord := loopbackCoordinator(t, topo, fedOpts(), WithReplicas(pool), WithRetryPolicy(chaosPolicy()))
				res, err := coord.Round()
				if err != nil {
					t.Fatalf("round over a refused replica pool: %v", err)
				}
				if len(res.Violations) == 0 {
					t.Error("degraded round found no violations")
				}
				if n, st := dials.n.Load(), pool.Stats(); n != 1 || st.Completed != 0 {
					t.Errorf("pool dialed the mismatched peer %d times and completed %d shards, want 1 and 0", n, st.Completed)
				}
			})
		}
	}
}

// TestProtoRejectsJSONFirstFrame: a pre-binary build opens with a JSON
// document. Agent and replica must end that connection with a
// malformed-frame error — not answer, hang or panic.
func TestProtoRejectsJSONFirstFrame(t *testing.T) {
	leakCheck(t)
	ag, err := NewAgent(leakTopo3(), "provider")
	if err != nil {
		t.Fatal(err)
	}
	servers := []struct {
		name  string
		serve func(io.ReadWriteCloser) error
	}{
		{"agent", ag.ServeConn},
		{"replica", NewReplica().ServeConn},
	}
	for _, srv := range servers {
		t.Run(srv.name, func(t *testing.T) {
			cli, far := net.Pipe()
			defer cli.Close()
			served := make(chan error, 1)
			go func() { served <- srv.serve(far) }()
			if err := writePayload(cli, []byte(`{"id":1,"method":"hello","params":{"max_version":4}}`)); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-served:
				if !errors.Is(err, errFrame) {
					t.Errorf("ServeConn returned %v, want a malformed-frame error", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("ServeConn still serving a connection that opened with JSON")
			}
			if _, err := cli.Read(make([]byte, 1)); err == nil {
				t.Error("server answered a JSON first frame")
			}
		})
	}
}

// misbehavingServer answers every frame through respond, exercising the
// client's protocol-error handling.
func misbehavingServer(t *testing.T, respond func(conn io.Writer, id uint64)) *Client {
	t.Helper()
	cli, srv := net.Pipe()
	t.Cleanup(func() { cli.Close(); srv.Close() })
	go func() {
		for {
			payload, err := readPayload(srv)
			if err != nil {
				return
			}
			id, _, _, err := parseRequest(payload)
			if err != nil {
				return
			}
			respond(srv, id)
		}
	}()
	return NewClient(cli)
}

// TestClientPoisonOnProtocolError is the Call-hardening satellite: an
// ID-mismatched or garbled response must poison the connection — the
// pending call fails with an error wrapping ErrClientBroken, and every
// later call fails immediately with the same sentinel instead of
// reading a desynchronized stream.
func TestClientPoisonOnProtocolError(t *testing.T) {
	cases := []struct {
		name    string
		respond func(conn io.Writer, id uint64)
	}{
		{"mismatched-id", func(conn io.Writer, id uint64) {
			_ = writePayload(conn, appendResponse(nil, id+7, "", nil))
		}},
		{"garbled-frame", func(conn io.Writer, id uint64) {
			_ = writePayload(conn, []byte("}{ not a document"))
		}},
		{"garbled-result", func(conn io.Writer, id uint64) {
			// A ShadowOpenResult body is one uvarint; a second octet is
			// trailing garbage.
			_ = writePayload(conn, append(appendResponse(nil, id, "", &ShadowOpenResult{ShadowID: 1}), 0x00))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := misbehavingServer(t, tc.respond)
			var out ShadowOpenResult
			err := cl.Call(MethodShadowOpen, nil, &out)
			if err == nil {
				t.Fatal("call against a misbehaving server succeeded")
			}
			if !errors.Is(err, ErrClientBroken) {
				t.Fatalf("error %v does not wrap ErrClientBroken", err)
			}
			// The poison is sticky: no more frames are read or written.
			if err := cl.Call(MethodShadowOpen, nil, &out); !errors.Is(err, ErrClientBroken) {
				t.Fatalf("second call returned %v, want ErrClientBroken", err)
			}
		})
	}
}

// TestClientPipelinedCalls: many concurrent Go calls over one
// connection all complete and land on the right results — the response
// matcher keys strictly on IDs, not arrival order.
func TestClientPipelinedCalls(t *testing.T) {
	ag, err := NewAgent(leakTopo3(), "provider")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Loopback{Agent: ag}.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	defer cl.Close()
	if _, err := cl.Handshake(); err != nil {
		t.Fatal(err)
	}
	const n = 64
	outs := make([]ShadowOpenResult, n)
	pend := make([]*Pending, n)
	for i := range pend {
		pend[i] = cl.Go(MethodShadowOpen, nil, &outs[i])
	}
	seen := make(map[uint64]bool, n)
	for i, p := range pend {
		if err := p.Wait(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if outs[i].ShadowID == 0 || seen[outs[i].ShadowID] {
			t.Fatalf("call %d: shadow id %d duplicated or zero", i, outs[i].ShadowID)
		}
		seen[outs[i].ShadowID] = true
	}
}

// ioCountingConn counts the Read and Write calls that reach the
// transport — on a net.Pipe each is one rendezvous with the far side.
type ioCountingConn struct {
	io.ReadWriteCloser
	reads, writes atomic.Int64
}

func (c *ioCountingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.ReadWriteCloser.Read(p)
}

func (c *ioCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.ReadWriteCloser.Write(p)
}

// TestFrameCostsOneWriteOneRead: a typical frame leaves in one Write
// built with one allocation, and arrives in one Read (header and body
// together, through the small frame buffer) — while a frame larger than
// that buffer still round-trips intact.
func TestFrameCostsOneWriteOneRead(t *testing.T) {
	ag, err := NewAgent(fatLeakTopo3(), "provider")
	if err != nil {
		t.Fatal(err)
	}
	inner, err := Loopback{Agent: ag}.Dial()
	if err != nil {
		t.Fatal(err)
	}
	conn := &ioCountingConn{ReadWriteCloser: inner}
	cl := NewClient(conn)
	defer cl.Close()
	if _, err := cl.Handshake(); err != nil {
		t.Fatal(err)
	}
	var open ShadowOpenResult
	if err := cl.Call(MethodShadowOpen, nil, &open); err != nil {
		t.Fatal(err)
	}
	const n = 50
	reads, writes := conn.reads.Load(), conn.writes.Load()
	q := &QueryOracleParams{ShadowID: open.ShadowID, Prefix: netaddr.MustParsePrefix("10.7.0.0/16")}
	for i := 0; i < n; i++ {
		if err := cl.Call(MethodQueryOracle, q, &QueryOracleResult{}); err != nil {
			t.Fatal(err)
		}
	}
	// The read loop's next (blocked) Read may or may not have started.
	if r, w := conn.reads.Load()-reads, conn.writes.Load()-writes; w != n || r > n+1 {
		t.Errorf("%d calls cost %d writes and %d reads, want %d and at most %d", n, w, r, n, n+1)
	}

	// A checkpoint is far larger than frameReadBuffer.
	var cp CheckpointResult
	if err := cl.Call(MethodCheckpoint, nil, &cp); err != nil {
		t.Fatal(err)
	}
	state := bytes.Join(cp.Chunks, nil)
	if len(state) <= frameReadBuffer {
		t.Errorf("checkpoint of %d bytes does not exercise the large-frame path", len(state))
	}
	direct, err := ag.handle(MethodCheckpoint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, bytes.Join(direct.(*CheckpointResult).Chunks, nil)) {
		t.Error("checkpoint mangled by the buffered reader")
	}

	if allocs := testing.AllocsPerRun(100, func() {
		frame, err := encodeRequest(7, MethodQueryOracle, q)
		if err == nil {
			err = sendFrame(io.Discard, frame)
		}
		if err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("an outgoing frame costs %.0f allocations, want 1", allocs)
	}
	if err := sendFrame(io.Discard, make([]byte, frameHeader+maxFrame+1)); err == nil {
		t.Error("sendFrame accepted a frame over maxFrame")
	}
}

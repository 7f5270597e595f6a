package dist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dice/internal/bgp"
	"dice/internal/netaddr"
)

// writePayload frames and sends an already-encoded payload, the way the
// hand-rolled servers in these tests answer.
func writePayload(w io.Writer, body []byte) error {
	return sendFrame(w, append(make([]byte, frameHeader), body...))
}

// dialCounter counts the dials Connect spends on one peer.
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
		payload, err := readPayload(bufio.NewReader(srv), freshBody)
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
// hello with the wrong version, or a real agent receiving one — fails
// Connect with both versions in the error after exactly one dial (an
// application error burns no reconnect budget).
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
			})
		}
	}
}

// TestProtoRejectsJSONFirstFrame: a pre-binary build opens with a JSON
// document. The agent must end that connection with a malformed-frame
// error — not answer, hang or panic.
func TestProtoRejectsJSONFirstFrame(t *testing.T) {
	leakCheck(t)
	ag, err := NewAgent(leakTopo3(), "provider")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("agent", func(t *testing.T) {
		cli, far := net.Pipe()
		defer cli.Close()
		served := make(chan error, 1)
		go func() { served <- ag.ServeConn(far) }()
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

// misbehavingServer answers every frame through respond, exercising the
// client's protocol-error handling.
func misbehavingServer(t *testing.T, respond func(conn io.Writer, id uint64)) *Client {
	t.Helper()
	cli, srv := net.Pipe()
	t.Cleanup(func() { cli.Close(); srv.Close() })
	go func() {
		br := bufio.NewReader(srv)
		for {
			payload, err := readPayload(br, freshBody)
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
			// A ReplayResult body is two uvarints; a third octet is
			// trailing garbage.
			_ = writePayload(conn, append(appendResponse(nil, id, "", &ReplayResult{Delivered: 1}), 0x00))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := misbehavingServer(t, tc.respond)
			var out ReplayResult
			err := cl.Call(MethodReplay, &ReplayParams{}, &out)
			if err == nil {
				t.Fatal("call against a misbehaving server succeeded")
			}
			if !errors.Is(err, ErrClientBroken) {
				t.Fatalf("error %v does not wrap ErrClientBroken", err)
			}
			// The poison is sticky: no more frames are read or written.
			if err := cl.Call(MethodReplay, &ReplayParams{}, &out); !errors.Is(err, ErrClientBroken) {
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
	// Every other call queries a shadow it does not open, which was never
	// opened: its error names its own id, so an answer matched to the
	// wrong call shows.
	const n = 64
	outs := make([]QueryOracleResult, n)
	pend := make([]*Pending, n)
	for i := range pend {
		q := &QueryOracleParams{ShadowID: uint64(i), Open: i%2 == 0, Prefix: netaddr.MustParsePrefix("10.7.0.0/16")}
		pend[i] = cl.Go(MethodQueryOracle, q, &outs[i])
	}
	for i, p := range pend {
		err := p.Wait()
		if i%2 == 0 && err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if i%2 == 1 && (err == nil || !strings.HasSuffix(err.Error(), fmt.Sprintf("%s %d", noShadowMarker, i))) {
			t.Fatalf("call %d: %v, want the missing shadow %d", i, err, i)
		}
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
// built in a pooled buffer, without an allocation, and arrives in one
// Read (header and body together, through the small frame buffer) —
// while a frame larger than that buffer still round-trips intact.
func TestFrameCostsOneWriteOneRead(t *testing.T) {
	ag, err := NewAgent(leakTopo3(), "provider")
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
	if err := cl.Call(MethodQueryOracle, &QueryOracleParams{ShadowID: 1, Open: true}, &QueryOracleResult{}); err != nil {
		t.Fatal(err)
	}
	const n = 50
	reads, writes := conn.reads.Load(), conn.writes.Load()
	q := &QueryOracleParams{ShadowID: 1, Prefix: netaddr.MustParsePrefix("10.7.0.0/16")}
	for i := 0; i < n; i++ {
		if err := cl.Call(MethodQueryOracle, q, &QueryOracleResult{}); err != nil {
			t.Fatal(err)
		}
	}
	// The read loop's next (blocked) Read may or may not have started.
	if r, w := conn.reads.Load()-reads, conn.writes.Load()-writes; w != n || r > n+1 {
		t.Errorf("%d calls cost %d writes and %d reads, want %d and at most %d", n, w, r, n, n+1)
	}

	// A batch of 32 witness deliveries is far larger than frameReadBuffer
	// both ways, and must answer exactly what the agent's own handler
	// answers for it on a second shadow.
	u := *ag.self.LastObserved("customer")
	batch := &InjectBatchParams{ShadowID: 2, Open: true}
	for i := 0; i < 32; i++ {
		u.NLRI = []netaddr.Prefix{netaddr.PrefixFrom(netaddr.AddrFrom4(10, 9, 0, byte(i)), 32)}
		wire, err := bgp.Encode(&u)
		if err != nil {
			t.Fatal(err)
		}
		batch.Deliveries = append(batch.Deliveries, BatchDelivery{From: "customer", Msg: wire, Watch: u.NLRI[0]})
	}
	var got InjectBatchResult
	if err := cl.Call(MethodInjectWitness, batch, &got); err != nil {
		t.Fatal(err)
	}
	req, resp := encodeBody(nil, batch), encodeBody(nil, &got)
	if len(req) <= frameReadBuffer || len(resp) <= frameReadBuffer {
		t.Errorf("a %d-byte request and %d-byte answer do not exercise the large-frame path", len(req), len(resp))
	}
	direct := *batch
	direct.ShadowID = 3
	want, err := ag.handle(MethodInjectWitness, &direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, encodeBody(nil, want)) {
		t.Error("inject_witness batch mangled by the buffered reader")
	}

	// Under the race detector the pool drops a share of what it is handed
	// (raceEnabled), so there a frame may still cost its buffer.
	maxAllocs := 0.0
	if raceEnabled {
		maxAllocs = 1
	}
	if allocs := testing.AllocsPerRun(100, func() {
		fp := getFrame()
		frame, err := encodeRequest(*fp, 7, MethodQueryOracle, q)
		if err == nil {
			err = sendFrame(io.Discard, frame)
		}
		if err != nil {
			t.Fatal(err)
		}
		*fp = frame
		putFrame(fp)
	}); allocs > maxAllocs {
		t.Errorf("an outgoing frame costs %.0f allocations, want at most %.0f", allocs, maxAllocs)
	}
	if err := sendFrame(io.Discard, make([]byte, frameHeader+maxFrame+1)); err == nil {
		t.Error("sendFrame accepted a frame over maxFrame")
	}
}

// TestDecodedMessagesOutliveTheirFrame: a decoded answer owns its bytes.
// Every pooled frame buffer is scribbled over as it goes back to the pool
// (scribbleFrames), so an answer decoded from a buffer already returned,
// or still aliasing one, shows at once. An inject_witness answer — its
// emissions' To and Msg, CoveringNextPeer and PropMatch — must re-encode
// to the bytes it had when its call returned after many more calls have
// reused the buffers, and a retry of its keyed call must get the memo's
// byte-identical answer.
func TestDecodedMessagesOutliveTheirFrame(t *testing.T) {
	scribbleFrames.Store(true)
	t.Cleanup(func() { scribbleFrames.Store(false) })
	ag, err := NewAgent(leakTopo3(), "provider")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Loopback{Agent: ag}.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	cl.Session, cl.Properties = 1, atProps()
	defer cl.Close()
	if _, err := cl.Handshake(); err != nil {
		t.Fatal(err)
	}
	u := *ag.self.LastObserved("customer")
	batch := func(shadow uint64) *InjectBatchParams {
		p := &InjectBatchParams{ShadowID: shadow, Open: true, Key: shadow, WantProps: true}
		for i := 0; i < 8; i++ {
			u.NLRI = []netaddr.Prefix{netaddr.PrefixFrom(netaddr.AddrFrom4(10, 9, byte(shadow), byte(i)), 32)}
			wire, err := bgp.Encode(&u)
			if err != nil {
				t.Fatal(err)
			}
			p.Deliveries = append(p.Deliveries, BatchDelivery{From: "customer", Msg: wire, Watch: u.NLRI[0]})
		}
		return p
	}
	first := batch(1)
	var got InjectBatchResult
	if err := cl.Call(MethodInjectWitness, first, &got); err != nil {
		t.Fatal(err)
	}
	want := encodeBody(nil, &got)
	r := got.Results[0]
	if len(r.Emitted) == 0 || r.Emitted[0].To == "" || len(r.Emitted[0].Msg) == 0 || r.After.CoveringNextPeer == "" || len(r.After.PropMatch) == 0 {
		t.Fatalf("answer %+v leaves a field this test guards empty", r)
	}

	for shadow := uint64(2); shadow < 34; shadow++ {
		var other InjectBatchResult
		if err := cl.Call(MethodInjectWitness, batch(shadow), &other); err != nil {
			t.Fatal(err)
		}
		var q QueryOracleResult
		if err := cl.Call(MethodQueryOracle, &QueryOracleParams{ShadowID: shadow, Prefix: netaddr.MustParsePrefix("10.7.0.0/16")}, &q); err != nil {
			t.Fatal(err)
		}
	}
	if again := encodeBody(nil, &got); !bytes.Equal(again, want) {
		t.Errorf("a decoded answer changed after its frame was reused:\nat return %x\nnow       %x", want, again)
	}

	var retried InjectBatchResult
	if err := cl.Call(MethodInjectWitness, first, &retried); err != nil {
		t.Fatal(err)
	}
	if again := encodeBody(nil, &retried); !bytes.Equal(again, want) {
		t.Errorf("a retried keyed inject_witness answered\n%x\nnot the memo's\n%x", again, want)
	}
}

package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"dice/internal/core"
)

// writePayload frames and sends an already-encoded payload, the way the
// hand-rolled servers in these tests answer.
func writePayload(w io.Writer, body []byte) error {
	return sendFrame(w, append(newFrame(), body...))
}

// versionedCoordinator builds one loopback agent per node with the
// given protocol cap and connects a coordinator with the given options.
func versionedCoordinator(t *testing.T, topo *core.Topology, opts core.FederatedOptions, agentMax int, copts ...ConnOption) *Coordinator {
	t.Helper()
	var dialers []Dialer
	for _, n := range topo.Nodes {
		ag, err := NewAgent(topo, n.Name)
		if err != nil {
			t.Fatalf("agent %s: %v", n.Name, err)
		}
		ag.MaxProtoVersion = agentMax
		dialers = append(dialers, Loopback{Agent: ag})
	}
	c, err := Connect(topo, opts, dialers, copts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestProtoNegotiationMatrix is the version-skew acceptance: current
// coordinator against v1 JSON agents, against v2-capped binary agents
// (exercising the legacy base-layout encoders), a capped coordinator
// against current agents, and the call-and-wait discipline all
// negotiate the expected version and complete a round whose canonical
// snapshot is identical to the in-process backend's — findings,
// witnesses, minimal witnesses, violations and step counts line by
// line.
func TestProtoNegotiationMatrix(t *testing.T) {
	topo, err := core.LoadTopology("../../examples/federated/topo.json")
	if err != nil {
		t.Fatal(err)
	}
	fe, err := core.NewFederatedExperiment(topo, minimizeOpts())
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(inproc.Snapshot(), "\n")

	cases := []struct {
		name     string
		agentMax int
		copts    []ConnOption
		wantVer  int
	}{
		{"v4-both", 0, nil, ProtoV4},
		{"v4-coordinator-v1-agents", ProtoV1, nil, ProtoV1},
		{"v4-coordinator-v2-agents", ProtoV2, nil, ProtoV2},
		{"v4-coordinator-v3-agents", ProtoV3, nil, ProtoV3},
		{"v1-coordinator-v4-agents", 0, []ConnOption{WithMaxVersion(ProtoV1)}, ProtoV1},
		{"v2-coordinator-v4-agents", 0, []ConnOption{WithMaxVersion(ProtoV2)}, ProtoV2},
		{"v3-coordinator-v4-agents", 0, []ConnOption{WithMaxVersion(ProtoV3)}, ProtoV3},
		{"v4-call-and-wait", 0, []ConnOption{WithCallAndWait()}, ProtoV4},
		{"v2-call-and-wait", ProtoV2, []ConnOption{WithCallAndWait()}, ProtoV2},
		{"v1-call-and-wait", 0, []ConnOption{WithMaxVersion(ProtoV1), WithCallAndWait()}, ProtoV1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord := versionedCoordinator(t, topo, minimizeOpts(), tc.agentMax, tc.copts...)
			for node, v := range coord.Versions() {
				if v != tc.wantVer {
					t.Fatalf("node %s negotiated v%d, want v%d", node, v, tc.wantVer)
				}
			}
			res, err := coord.Round()
			if err != nil {
				t.Fatal(err)
			}
			got := strings.Join(res.Snapshot(), "\n")
			if got != want {
				t.Errorf("snapshot differs from in-process:\n--- in-process ---\n%s\n--- %s ---\n%s", want, tc.name, got)
			}
		})
	}
}

// TestProtoNegotiationTCP runs the v1-fallback and v2 paths over real
// sockets: same round, same violations either way.
func TestProtoNegotiationTCP(t *testing.T) {
	run := func(t *testing.T, copts ...ConnOption) []string {
		topo := leakTopo3()
		var dialers []Dialer
		for _, n := range topo.Nodes {
			ag, err := NewAgent(topo, n.Name)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			go ag.ListenAndServe(ln) //nolint:errcheck // ends when ln closes
			dialers = append(dialers, TCPDialer{Addr: ln.Addr().String()})
		}
		coord, err := Connect(topo, fedOpts(), dialers, copts...)
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		res, err := coord.Round()
		if err != nil {
			t.Fatal(err)
		}
		return sortedViolations(res.Violations)
	}
	v2 := run(t)
	v1 := run(t, WithMaxVersion(ProtoV1), WithCallAndWait())
	if len(v2) == 0 {
		t.Fatal("TCP v2 round found no violations")
	}
	if strings.Join(v1, "\n") != strings.Join(v2, "\n") {
		t.Errorf("TCP violations differ across protocol versions:\n v2: %v\n v1: %v", v2, v1)
	}
}

// misbehavingServer answers every frame through respond, exercising the
// client's protocol-error handling.
func misbehavingServer(t *testing.T, respond func(conn io.Writer, req request)) *Client {
	t.Helper()
	cli, srv := net.Pipe()
	t.Cleanup(func() { cli.Close(); srv.Close() })
	go func() {
		for {
			payload, err := readPayload(srv)
			if err != nil {
				return
			}
			var req request
			if err := json.Unmarshal(payload, &req); err != nil {
				return
			}
			respond(srv, req)
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
		respond func(conn io.Writer, req request)
	}{
		{"mismatched-id", func(conn io.Writer, req request) {
			body, _ := json.Marshal(response{ID: req.ID + 7})
			_ = writePayload(conn, body)
		}},
		{"garbled-frame", func(conn io.Writer, req request) {
			_ = writePayload(conn, []byte("}{ not a document"))
		}},
		{"garbled-result", func(conn io.Writer, req request) {
			body, _ := json.Marshal(response{ID: req.ID, Result: json.RawMessage(`{"shadow_id": "not a number"}`)})
			_ = writePayload(conn, body)
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
	if _, err := cl.Handshake(ProtoLatest); err != nil {
		t.Fatal(err)
	}
	if cl.Version() != ProtoLatest {
		t.Fatalf("negotiated v%d, want v%d", cl.Version(), ProtoLatest)
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
	if _, err := cl.Handshake(ProtoLatest); err != nil {
		t.Fatal(err)
	}
	var open ShadowOpenResult
	if err := cl.Call(MethodShadowOpen, nil, &open); err != nil {
		t.Fatal(err)
	}
	const n = 50
	reads, writes := conn.reads.Load(), conn.writes.Load()
	q := &QueryOracleParams{ShadowID: open.ShadowID, Prefix: "10.7.0.0/16"}
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
	if len(cp.State) <= frameReadBuffer {
		t.Errorf("checkpoint of %d bytes does not exercise the large-frame path", len(cp.State))
	}
	direct, err := ag.handleV2(MethodCheckpoint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cp.State, direct.(*CheckpointResult).State) {
		t.Error("checkpoint mangled by the buffered reader")
	}

	if allocs := testing.AllocsPerRun(100, func() {
		frame, err := encodeRequest(7, MethodQueryOracle, q, ProtoLatest)
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

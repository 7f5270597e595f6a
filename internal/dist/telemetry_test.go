package dist

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dice/internal/core"
	"dice/internal/telemetry"
)

// errDraining is the readiness error a draining server reports.
var errDraining = errors.New("draining")

// healthzCode probes a Health handler the way an HTTP load balancer
// would, without binding a socket.
func healthzCode(h *telemetry.Health) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	return rec.Code
}

// TestHealthzDuringDrain: the readiness check flips to 503 the moment a
// graceful shutdown starts — while the request already in flight still
// completes. This is the dicenode SIGTERM sequence with the signal
// handler replaced by a direct Shutdown call.
func TestHealthzDuringDrain(t *testing.T) {
	leakCheck(t)
	ag, err := NewAgent(leakTopo3(), "provider")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ag.EnableTelemetry(reg)
	health := telemetry.NewHealth()
	health.AddReadiness("drain", func() error {
		if ag.Draining() {
			return errDraining
		}
		return nil
	})
	if code := healthzCode(health); code != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want %d", code, http.StatusOK)
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
	var ex ExploreResult
	p := cl.Go(MethodExplore, &ExploreParams{
		Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true, EngineKnobs: EngineKnobs{MaxRuns: 500},
	}, &ex)
	// Let the agent's reader pull the request off the wire before the
	// drain starts; readiness must flip while this request is in flight.
	time.Sleep(100 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		ag.Shutdown(5 * time.Second)
		close(done)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for healthzCode(health) != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatalf("healthz never flipped to 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("in-flight explore failed during drain: %v", err)
	}
	if ex.Runs == 0 {
		t.Error("drained explore answered with zero runs")
	}
	cl.Close()
	<-done
	if code := healthzCode(health); code != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain = %d, want %d", code, http.StatusServiceUnavailable)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dice_rpc_server_draining 1") {
		t.Errorf("exposition missing dice_rpc_server_draining 1:\n%s", buf.String())
	}
}

// TestFleetMetricsEndpoint is the observability acceptance: a 3-agent +
// 2-replica fleet over real TCP sockets, a traced round, and a GET
// /metrics that returns valid exposition covering the RPC, coordinator,
// replica-pool and health families.
func TestFleetMetricsEndpoint(t *testing.T) {
	topo := leakTopo3()
	reg := telemetry.NewRegistry()
	var dialers []Dialer
	for _, n := range topo.Nodes {
		ag, err := NewAgent(topo, n.Name)
		if err != nil {
			t.Fatal(err)
		}
		// Sharing one registry across the in-process fleet also
		// exercises idempotent family registration.
		ag.EnableTelemetry(reg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go ag.ListenAndServe(ln) //nolint:errcheck // ends when ln closes
		dialers = append(dialers, TCPDialer{Addr: ln.Addr().String()})
	}
	pool := &ReplicaPool{}
	for i := 0; i < 2; i++ {
		r := NewReplica()
		r.EnableTelemetry(reg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go r.ListenAndServe(ln) //nolint:errcheck // ends when ln closes
		pool.Dialers = append(pool.Dialers, TCPDialer{Addr: ln.Addr().String()})
	}
	tracer := telemetry.NewTracer()
	coord, err := Connect(topo, fedOpts(), dialers,
		WithTelemetry(NewMetrics(reg)), WithTracer(tracer), WithReplicas(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.Round(); err != nil {
		t.Fatal(err)
	}
	if tracer.Len() == 0 {
		t.Error("traced round recorded no spans")
	}

	srv := httptest.NewServer(telemetry.NewMux(reg, telemetry.NewHealth()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	text := string(body)
	for _, family := range []string{
		"dice_rpc_client_calls_total",
		"dice_rpc_client_latency_seconds_bucket",
		"dice_rpc_server_requests_total",
		"dice_coordinator_rounds_total 1",
		"dice_coordinator_round_duration_seconds_count 1",
		"dice_coordinator_witnesses_injected_total",
		"dice_coordinator_witness_batches_total",
		"dice_coordinator_relay_steps_total",
		"dice_coordinator_relay_step_width_bucket",
		"dice_coordinator_relay_queue_depth 0",
		"dice_replica_pool_workers",
		"dice_agent_checkpoint_pages_total",
		"dice_replica_explores_total",
		`dice_node_health{node="provider",state="healthy"} 1`,
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing %q", family)
		}
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz = %d, want 200", hresp.StatusCode)
	}
}

// TestChaosFaultCountersExported: faults the chaos dialer injects are
// assertable through the metrics exposition instead of test-side
// bookkeeping — each fired fault increments dice_chaos_faults_total
// with its kind label.
func TestChaosFaultCountersExported(t *testing.T) {
	leakCheck(t)
	topo := leakTopo3()
	reg := telemetry.NewRegistry()
	faults := ChaosFaultCounter(reg)
	var dialers []Dialer
	for _, n := range topo.Nodes {
		ag, err := NewAgent(topo, n.Name)
		if err != nil {
			t.Fatal(err)
		}
		dialers = append(dialers, &FaultDialer{
			Inner:  Loopback{Agent: ag},
			Plan:   &FaultPlan{Specs: []FaultSpec{{Conn: 0, Frame: 3, Kind: FaultGarble}}, FailDialsFrom: -1},
			Faults: faults,
		})
	}
	coord, err := Connect(topo, fedOpts(), dialers, WithRetryPolicy(chaosPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.Round(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `dice_chaos_faults_total{kind="garble"} 3`) {
		t.Errorf("exposition missing the 3 injected garble faults:\n%s", buf.String())
	}
}

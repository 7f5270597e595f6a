package dist

import (
	"bufio"
	"errors"
	"flag"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dice/internal/core"
	"dice/internal/telemetry"
)

// chaosSeedFlag lets CI run the chaos parity suites one seed at a time
// (go test ./internal/dist/ -chaos-seed=2); 0 runs the built-in matrix.
var chaosSeedFlag = flag.Int64("chaos-seed", 0, "run chaos parity suites with only this seed (0 = built-in seed matrix)")

func chaosSeeds() []int64 {
	if *chaosSeedFlag != 0 {
		return []int64{*chaosSeedFlag}
	}
	return []int64{1, 2, 3}
}

// chaosPolicy is the fault-handling configuration the chaos tests run
// under: a deadline short enough that a delayed frame times out, and a
// backoff schedule fast enough to keep the suite quick.
func chaosPolicy() RetryPolicy {
	return RetryPolicy{
		RPCTimeout:    250 * time.Millisecond,
		MaxReconnects: 3,
		BackoffBase:   2 * time.Millisecond,
		BackoffCap:    20 * time.Millisecond,
		Seed:          1,
	}
}

// chaosDelay is how long FaultDelay stalls a frame — comfortably past
// chaosPolicy's RPCTimeout, so a delayed response is a guaranteed
// timeout, not a near-miss.
const chaosDelay = 700 * time.Millisecond

// leakCheck fails the test if goroutines outlive it: every reader,
// worker, timer and chaos-delayed frame must unwind once connections
// close. The check polls because teardown is asynchronous by design
// (delayed frames drain on their own schedule).
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var n int
		for time.Now().Before(deadline) {
			n = runtime.NumGoroutine()
			if n <= before {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
	})
}

// totalFaults sums observed connection faults across the fleet.
func totalFaults(health map[string]NodeHealth) int {
	n := 0
	for _, h := range health {
		n += h.Faults
	}
	return n
}

// TestCallTimeout: a response delayed past the client's deadline fails
// that one call with ErrCallTimeout — and ONLY that call. The stream is
// still framed correctly, so the late answer is discarded silently and
// later calls on the same connection succeed.
func TestCallTimeout(t *testing.T) {
	leakCheck(t)
	ag, err := NewAgent(leakTopo3(), "provider")
	if err != nil {
		t.Fatal(err)
	}
	d := &FaultDialer{
		Inner: Loopback{Agent: ag},
		Plan: &FaultPlan{
			Delay:         300 * time.Millisecond,
			Specs:         []FaultSpec{{Conn: 0, Frame: 2, Kind: FaultDelay}},
			FailDialsFrom: -1,
		},
	}
	conn, err := d.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	defer cl.Close()
	cl.Timeout = 100 * time.Millisecond
	if _, err := cl.Handshake(); err != nil {
		t.Fatal(err)
	}

	ag.reqMu.Lock()
	for id := uint64(1); id <= 2; id++ {
		ag.shadow(id, true) //nolint:errcheck // an opening lookup cannot fail
	}
	ag.reqMu.Unlock()
	err = cl.Call(MethodShadowClose, &ShadowCloseParams{ShadowID: 1}, nil)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("delayed call returned %v, want ErrCallTimeout", err)
	}
	if errors.Is(err, ErrClientBroken) {
		t.Fatalf("timeout poisoned the connection: %v", err)
	}

	// Let the delayed frame drain, then reuse the connection: the late
	// answer must have been discarded, not matched to the next call.
	time.Sleep(400 * time.Millisecond)
	if err := cl.Call(MethodShadowClose, &ShadowCloseParams{ShadowID: 2}, nil); err != nil {
		t.Fatalf("call after a timeout failed: %v", err)
	}
	// The timed-out close DID execute on the agent (the timeout fired on
	// the answer, not the work): both shadows are closed.
	ag.reqMu.Lock()
	defer ag.reqMu.Unlock()
	if n := len(ag.shadows); n != 0 {
		t.Errorf("%d shadows still open (first close executed, answer discarded)", n)
	}
}

// blackholeConn accepts writes and never answers: every call times out
// and its ID lands in the abandoned set with no late response to clear
// it. Read blocks until Close.
type blackholeConn struct {
	closed    chan struct{}
	closeOnce sync.Once
}

func newBlackholeConn() *blackholeConn {
	return &blackholeConn{closed: make(chan struct{})}
}

func (b *blackholeConn) Write(p []byte) (int, error) { return len(p), nil }

func (b *blackholeConn) Read(p []byte) (int, error) {
	<-b.closed
	return 0, io.EOF
}

func (b *blackholeConn) Close() error {
	b.closeOnce.Do(func() { close(b.closed) })
	return nil
}

// TestAbandonedSetBounded: abandoned IDs whose answers never arrive
// (the request was lost, not delayed) must not accumulate for the
// connection's lifetime — the set is capped, evicting the oldest ID.
func TestAbandonedSetBounded(t *testing.T) {
	leakCheck(t)
	cl := NewClient(newBlackholeConn())
	cl.Timeout = 50 * time.Millisecond
	const calls = maxAbandoned + 200
	pend := make([]*Pending, calls)
	for i := range pend {
		pend[i] = cl.Go(MethodShadowClose, nil, nil)
	}
	for i, p := range pend {
		if err := p.Wait(); !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("call %d returned %v, want ErrCallTimeout", i, err)
		}
	}
	cl.mu.Lock()
	n := len(cl.abandoned)
	cl.mu.Unlock()
	if n != maxAbandoned {
		t.Errorf("abandoned set holds %d IDs after %d unanswered timeouts, want the cap %d", n, calls, maxAbandoned)
	}
	cl.Close()
}

// TestBrokenError: a desynchronized stream (a response ID matching no
// pending request) poisons the connection with a BrokenError that
// satisfies errors.Is(err, ErrClientBroken), unwraps to the cause, and
// names the offending frame ID.
func TestBrokenError(t *testing.T) {
	leakCheck(t)
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	go func() {
		if _, err := readPayload(bufio.NewReader(srvConn), freshBody); err != nil {
			return
		}
		writePayload(srvConn, appendResponse(nil, 99, "", nil)) //nolint:errcheck // test server
	}()
	cl := NewClient(cliConn)
	defer cl.Close()

	err := cl.Call(MethodShadowClose, nil, nil)
	if !errors.Is(err, ErrClientBroken) {
		t.Fatalf("rogue response id returned %v, want ErrClientBroken", err)
	}
	var be *BrokenError
	if !errors.As(err, &be) {
		t.Fatalf("error %T does not unwrap to *BrokenError", err)
	}
	if be.FrameID != 99 {
		t.Errorf("BrokenError.FrameID = %d, want 99", be.FrameID)
	}
	if be.Cause == nil {
		t.Error("BrokenError.Cause is nil")
	}
	if !strings.Contains(err.Error(), "frame id 99") {
		t.Errorf("error %q does not name the offending frame", err)
	}

	// The poison is sticky: later calls fail immediately with the same
	// broken error.
	if err2 := cl.Call(MethodShadowClose, nil, nil); !errors.Is(err2, ErrClientBroken) {
		t.Errorf("call on a poisoned connection returned %v", err2)
	}
}

// TestBackoffDeterministic: the backoff schedule is capped exponential
// with jitter in [d/2, d], and identical seeds draw identical schedules.
func TestBackoffDeterministic(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		rng := newTestRand(seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = backoffDelay(i+1, 25*time.Millisecond, 200*time.Millisecond, rng)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: same seed drew %v then %v", i+1, a[i], b[i])
		}
	}
	for i, d := range a {
		full := 25 * time.Millisecond << i
		if full > 200*time.Millisecond {
			full = 200 * time.Millisecond
		}
		if d < full/2 || d > full {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", i+1, d, full/2, full)
		}
	}
}

// TestReconnectMidRound: every fault kind fired mid-round must leave the
// round's outcome identical to a fault-free run, with the recovery
// visible in the health record (reconnects for stream faults; delay
// faults retry on a fresh connection too, since the coordinator treats
// a timeout as a connection-level fault).
func TestReconnectMidRound(t *testing.T) {
	leakCheck(t)
	clean := loopbackCoordinator(t, leakTopo3(), fedOpts())
	cleanRes, err := clean.Round()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(cleanRes.Snapshot(), "\n")

	for _, kind := range []FaultKind{FaultDrop, FaultGarble, FaultKill, FaultDelay} {
		t.Run(kind.String(), func(t *testing.T) {
			coord := fleetCoordinator(t, leakTopo3(), fedOpts(), faultAt("provider", 3, kind, -1), WithRetryPolicy(chaosPolicy()))
			res, err := coord.Round()
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(res.Snapshot(), "\n"); got != want {
				t.Errorf("snapshot diverged under %v fault:\n--- clean ---\n%s\n--- faulty ---\n%s", kind, want, got)
			}
			h := res.Health["provider"]
			if h.Faults == 0 {
				t.Errorf("provider health records no faults: %+v", h)
			}
			if h.State != HealthHealthy {
				t.Errorf("provider ended %q, want healthy after recovery: %+v", h.State, h)
			}
		})
	}
}

// TestRetriedShadowOpenLeaksNothing: the answer to upstream's opening
// inject_witness — the call that clones its shadow — is delayed past the
// deadline, so the coordinator counts the fault, reconnects and sends the
// call again, once, after the agent has already opened the shadow and
// delivered. The memo answers the retry: upstream clones exactly as often
// as in a fault-free round, the round lands on the fault-free snapshot,
// and no clone is left open.
func TestRetriedShadowOpenLeaksNothing(t *testing.T) {
	leakCheck(t)
	round := func(wrap func(string, Dialer) Dialer, copts ...ConnOption) (*RoundResult, *Coordinator, *agentMetrics) {
		t.Helper()
		agents := make(map[string]*Agent)
		for _, n := range leakTopo3().Nodes {
			ag, err := NewAgent(leakTopo3(), n.Name)
			if err != nil {
				t.Fatal(err)
			}
			agents[n.Name] = ag
		}
		agents["upstream"].EnableTelemetry(telemetry.NewRegistry())
		c := connectAgents(t, leakTopo3(), agents, fedOpts(), wrap, copts...)
		res, err := c.Round()
		if err != nil {
			t.Fatal(err)
		}
		return res, c, agents["upstream"].am
	}
	clean, _, cleanM := round(nil)
	// upstream is no explore target, so its second inbound frame, the
	// first after the hello, answers the UPDATE wave's first delivery to
	// it: the call marked Open.
	res, coord, m := round(faultAt("upstream", 2, FaultDelay, -1), withChaosPolicy(t)...)
	if got, want := strings.Join(res.Snapshot(), "\n"), strings.Join(clean.Snapshot(), "\n"); got != want {
		t.Errorf("snapshot after a retried opening call differs:\n--- clean ---\n%s\n--- faulty ---\n%s", want, got)
	}
	if h := res.Health["upstream"]; h.Faults != 1 || h.Reconnects != 1 {
		t.Fatalf("upstream health %+v, want the one delayed opening answer and its reconnect", h)
	}
	if n := m.memoHits.With("inject").Value(); n != 1 {
		t.Errorf("%d inject memo hits on upstream, want 1: the call reaches the agent once, and its one retry, on the replacement connection, is answered from the memo", n)
	}
	if got, want := m.shadowsOpened.Value(), cleanM.shadowsOpened.Value(); got != want || want == 0 {
		t.Errorf("upstream opened %d shadows, %d in the fault-free round: the retried opening call cloned again", got, want)
	}
	if n := agentShadows(coord); n != 0 {
		t.Errorf("%d shadow clones left open after the round", n)
	}
}

// diamondTopo is a 5-AS diamond: apex leaks src's NO_EXPORT-tagged
// routes to left AND right at the same virtual time, whose re-emissions
// arrive at sink simultaneously — the smallest topology where the relay
// coalesces a genuine multi-delivery inject_witness every round.
func diamondTopo() *core.Topology {
	return &core.Topology{
		Name: "dist-diamond-5as",
		Nodes: []core.TopoNode{
			{Name: "src", Config: []string{
				"router id 10.1.0.1;",
				"local as 65001;",
				"network 10.7.0.0/16;",
				"peer apex { remote 10.1.0.2 as 65002; }",
			}},
			{Name: "apex", Config: []string{
				"router id 10.1.0.2;",
				"local as 65002;",
				"filter src_in {",
				"    if net ~ 10.7.0.0/16 then accept;",
				"    if net ~ 10.0.0.0/8{24,32} then accept;",
				"    reject;",
				"}",
				"peer src { remote 10.1.0.1 as 65001; import filter src_in; }",
				"peer left { remote 10.1.0.3 as 65003; }",
				"peer right { remote 10.1.0.4 as 65004; }",
			}},
			{Name: "left", Config: []string{
				"router id 10.1.0.3;",
				"local as 65003;",
				"peer apex { remote 10.1.0.2 as 65002; }",
				"peer sink { remote 10.1.0.5 as 65005; }",
			}},
			{Name: "right", Config: []string{
				"router id 10.1.0.4;",
				"local as 65004;",
				"peer apex { remote 10.1.0.2 as 65002; }",
				"peer sink { remote 10.1.0.5 as 65005; }",
			}},
			{Name: "sink", Config: []string{
				"router id 10.1.0.5;",
				"local as 65005;",
				"peer left { remote 10.1.0.3 as 65003; }",
				"peer right { remote 10.1.0.4 as 65004; }",
			}},
		},
		Edges: []core.TopoEdge{
			{A: "src", B: "apex"},
			{A: "apex", B: "left"},
			{A: "apex", B: "right"},
			{A: "left", B: "sink"},
			{A: "right", B: "sink"},
		},
		Explore: []core.ExploreTarget{
			{Node: "apex", Peer: "src", Scenario: core.ScenarioRouteLeak},
		},
	}
}

// methodKiller closes the connection immediately after the first
// request for a given method is written — the agent may or may not have
// processed it, but its answer is certainly lost: from the moment the
// request starts going out, Read delivers nothing more. (Closing after
// the write alone is not enough — an agent that answers before this
// goroutine runs again gets its response through ahead of the Close.)
// This is the sharpest at-least-once edge: the retried call must be
// answered from the agent's idempotency memo, not re-applied.
type methodKiller struct {
	inner  io.ReadWriteCloser
	method string

	mu    sync.Mutex
	fired bool
}

func (k *methodKiller) Write(p []byte) (int, error) {
	k.mu.Lock()
	fire := !k.fired && len(p) > 4 && requestMethod(p[4:]) == k.method
	k.fired = k.fired || fire
	k.mu.Unlock()
	n, err := k.inner.Write(p)
	if fire {
		k.inner.Close()
	}
	return n, err
}

func (k *methodKiller) Read(p []byte) (int, error) {
	n, err := k.inner.Read(p)
	k.mu.Lock()
	fired := k.fired
	k.mu.Unlock()
	if fired {
		return 0, io.ErrClosedPipe
	}
	return n, err
}

func (k *methodKiller) Close() error { return k.inner.Close() }

// requestMethod sniffs a request payload's method ("" for anything
// that is not a request envelope).
func requestMethod(payload []byte) string {
	_, m, _, _ := parseRequest(payload)
	return m
}

// killDialer arms the first produced connection with a methodKiller;
// reconnects get clean connections.
type killDialer struct {
	inner  Dialer
	method string

	mu     sync.Mutex
	killer *methodKiller
}

func (d *killDialer) Dial() (io.ReadWriteCloser, error) {
	conn, err := d.inner.Dial()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.killer == nil {
		d.killer = &methodKiller{inner: conn, method: d.method}
		return d.killer, nil
	}
	return conn, nil
}

// on returns a fleetCoordinator wrap that puts d in front of node's dialer.
func (d *killDialer) on(node string) func(string, Dialer) Dialer {
	return func(n string, inner Dialer) Dialer {
		if n != node {
			return inner
		}
		d.inner = inner
		return d
	}
}

func (d *killDialer) fired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.killer != nil && d.killer.fired
}

// TestAgentDiesMidCall: the agent's connection dies the instant a
// specific request has been written — mid-explore and mid-inject_witness
// (on the diamond's sink, where the delivery is a genuine batch). The
// round must reconnect, retry through the idempotency memos, and land on
// the fault-free snapshot.
func TestAgentDiesMidCall(t *testing.T) {
	leakCheck(t)
	clean := loopbackCoordinator(t, diamondTopo(), fedOpts())
	cleanRes, err := clean.Round()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(cleanRes.Snapshot(), "\n")
	if cleanRes.WitnessesInjected == 0 {
		t.Fatal("diamond round vacuous: no witnesses propagated")
	}

	cases := []struct {
		name   string
		node   string
		method string
	}{
		{"v2-mid-explore", "apex", MethodExplore},
		{"v2-mid-inject-batch", "sink", MethodInjectWitness},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kd := &killDialer{method: tc.method}
			coord := fleetCoordinator(t, diamondTopo(), fedOpts(), kd.on(tc.node), WithRetryPolicy(chaosPolicy()))
			res, err := coord.Round()
			if err != nil {
				t.Fatal(err)
			}
			if !kd.fired() {
				t.Fatalf("the round never issued %s to %s — kill case vacuous", tc.method, tc.node)
			}
			if got := strings.Join(res.Snapshot(), "\n"); got != want {
				t.Errorf("snapshot diverged after mid-%s kill:\n--- clean ---\n%s\n--- faulty ---\n%s", tc.method, want, got)
			}
			if h := res.Health[tc.node]; h.Reconnects == 0 {
				t.Errorf("%s health records no reconnect: %+v", tc.node, h)
			}
		})
	}
}

// TestAgentDiesInsideRelayStep: the kill lands inside a pipelined relay
// step. The diamond's apex re-advertises to left and right at one virtual
// time, so the two go out together; left's connection dies the instant
// its request is written — right applied and answered, left applied and
// its answer is lost. The step's retry reaches left on a fresh
// connection under the same key and is answered from the memo (counted
// on the agent), no delivery is applied twice — left's agent executed
// exactly the injects a fault-free round makes — and the round lands on
// the in-process backend's snapshot.
func TestAgentDiesInsideRelayStep(t *testing.T) {
	leakCheck(t)
	fe, err := core.NewFederatedExperiment(diamondTopo(), fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	// round runs one distributed round with a telemetry registry on left's
	// agent and returns left's executed (non-memo) injects and memo hits.
	round := func(wrap func(string, Dialer) Dialer) (res *RoundResult, tm *Metrics, executed, memoHits uint64) {
		topo := diamondTopo()
		var left *Agent
		var dialers []Dialer
		for _, n := range topo.Nodes {
			ag, err := NewAgent(topo, n.Name)
			if err != nil {
				t.Fatal(err)
			}
			if n.Name == "left" {
				left = ag
				left.EnableTelemetry(telemetry.NewRegistry())
			}
			var d Dialer = Loopback{Agent: ag}
			if wrap != nil {
				d = wrap(n.Name, d)
			}
			dialers = append(dialers, d)
		}
		tm = NewMetrics(telemetry.NewRegistry())
		c, err := Connect(topo, fedOpts(), dialers, WithRetryPolicy(chaosPolicy()), WithTelemetry(tm))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if res, err = c.Round(); err != nil {
			t.Fatal(err)
		}
		memoHits = left.am.memoHits.With("inject").Value()
		return res, tm, left.rpcServer.tm.requests.With(MethodInjectWitness).Value() - memoHits, memoHits
	}
	_, _, cleanExecuted, cleanHits := round(nil)
	kd := &killDialer{method: MethodInjectWitness}
	res, tm, executed, hits := round(kd.on("left"))
	if !kd.fired() {
		t.Fatal("the round never injected into left — kill case vacuous")
	}
	if tm.relayStepWidth.Sum() <= float64(tm.relayStepWidth.Count()) {
		t.Fatal("no relay step addressed two agents — the kill was not inside a pipelined step")
	}
	if cleanHits != 0 || hits != 1 {
		t.Errorf("left answered %d injects from its memo (fault-free: %d), want exactly the one retried call", hits, cleanHits)
	}
	if executed != cleanExecuted {
		t.Errorf("left executed %d injects, a fault-free round %d: a delivery was applied twice or lost", executed, cleanExecuted)
	}
	if got, want := strings.Join(res.Snapshot(), "\n"), strings.Join(inproc.Snapshot(), "\n"); got != want {
		t.Errorf("snapshot diverged from the in-process backend:\n--- in-process ---\n%s\n--- faulty ---\n%s", want, got)
	}
	if h := res.Health["left"]; h.Reconnects == 0 {
		t.Errorf("left health records no reconnect: %+v", h)
	}
}

// TestRedialBudgetPerEpisode: one recovery episode re-dials at most
// RetryPolicy.MaxReconnects times. The doomed dialer lets its first dial
// through, drops that connection at its first answer after the hello and
// refuses every dial after it, so the episode spends its whole budget
// and the agent then degrades.
func TestRedialBudgetPerEpisode(t *testing.T) {
	leakCheck(t)
	policy := chaosPolicy()
	var agent *FaultDialer
	coord := fleetCoordinator(t, leakTopo3(), fedOpts(), func(node string, d Dialer) Dialer {
		if node != "provider" {
			return d
		}
		agent = &FaultDialer{Inner: d, Plan: &FaultPlan{
			Specs:         []FaultSpec{{Conn: 0, Frame: 2, Kind: FaultDrop}},
			FailDialsFrom: 1,
		}}
		return agent
	}, WithRetryPolicy(policy))
	res, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}
	if redials := agent.Dials() - 1; redials != policy.MaxReconnects {
		t.Errorf("%d re-dials in one recovery episode, budget %d", redials, policy.MaxReconnects)
	}
	if h := res.Health["provider"]; h.State != HealthDegraded {
		t.Errorf("provider ended %q after its budget ran out, want degraded", h.State)
	}
}

// TestNoFallbackFailsClosed: with the degraded fallback disabled, an
// unreachable agent fails the round with a sticky per-node error
// instead of silently simulating.
func TestNoFallbackFailsClosed(t *testing.T) {
	leakCheck(t)
	policy := chaosPolicy()
	policy.NoFallback = true
	coord := fleetCoordinator(t, leakTopo3(), fedOpts(), faultAt("provider", 2, FaultDrop, 1), WithRetryPolicy(policy))
	if _, err := coord.Round(); err == nil {
		t.Fatal("round succeeded with an unreachable agent and NoFallback set")
	} else if !strings.Contains(err.Error(), "failed after") {
		t.Errorf("round error %q does not name the exhausted reconnect budget", err)
	}
	if h := coord.Health()["provider"]; h.State != HealthFailed {
		t.Errorf("provider health %+v, want failed", h)
	}
}

// deadAfterFirstDial passes one dial through and refuses the rest — the
// "agent stays dead" schedule.
func deadAfterFirstDial(inner Dialer) Dialer {
	return &FaultDialer{Inner: inner, Plan: &FaultPlan{FailDialsFrom: 1}}
}

// TestWarmHandoffAfterDegrade: under ReuseState, a node whose agent dies
// between rounds, past the reconnect budget, explores round 2 on a
// degraded in-process replacement — cold, since its warm state died with
// the agent — and the round still reads as an all-healthy fleet's warm
// round: the replacement's hello resumes no session, so the coordinator
// drops the findings the dead agent already returned (dropKnown), and no
// known route leak, witness or violation is reported twice. Round 3 runs
// on the now-warm replacement and matches too.
func TestWarmHandoffAfterDegrade(t *testing.T) {
	// Provider's connection 0 is clean; once it dies, every redial is
	// refused — the agent stays dead.
	warmHandoff(t, deadAfterFirstDial, HealthDegraded)
}

// TestWarmHandoffAfterRestart: the same handoff through a reconnect
// instead of the fallback — the redial reaches a freshly started agent
// process, whose hello resumes no session either — reads as the healthy
// fleet's rounds too.
func TestWarmHandoffAfterRestart(t *testing.T) {
	warmHandoff(t, func(d Dialer) Dialer { return &restartingDialer{first: d} }, HealthHealthy)
}

// restartingDialer serves its first connection from the agent it wraps
// and every later one from a freshly started agent — a process restart.
type restartingDialer struct {
	first Dialer
	dials int
}

func (d *restartingDialer) Dial() (io.ReadWriteCloser, error) {
	d.dials++
	if d.dials == 1 {
		return d.first.Dial()
	}
	ag, err := NewAgent(leakTopo3(), "provider")
	if err != nil {
		return nil, err
	}
	return Loopback{Agent: ag}.Dial()
}

// warmHandoff runs three ReuseState rounds on leakTopo3 with provider's
// dialer wrapped by provider, its connection closed between rounds 1 and
// 2, and holds every round to a healthy fleet's snapshot and provider's
// final health to want.
func warmHandoff(t *testing.T, provider func(Dialer) Dialer, want string) {
	t.Helper()
	leakCheck(t)
	opts := fedOpts()
	opts.ReuseState = true
	round := func(c *Coordinator) (string, *RoundResult) {
		t.Helper()
		res, err := c.Round()
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(res.Snapshot(), "\n"), res
	}

	// Reference: three healthy rounds.
	ref := loopbackCoordinator(t, leakTopo3(), opts)
	var healthy [3]string
	for i := range healthy {
		healthy[i], _ = round(ref)
	}
	if healthy[1] == healthy[0] {
		t.Fatal("the healthy warm round repeats the cold one — nothing for the filter to drop")
	}

	coord := fleetCoordinator(t, leakTopo3(), opts, func(node string, d Dialer) Dialer {
		if node == "provider" {
			return provider(d)
		}
		return d
	}, WithRetryPolicy(chaosPolicy()))
	var got [3]string
	got[0], _ = round(coord)

	// Between rounds provider's agent connection drops: round 2's first
	// call to it recovers onto an agent that holds no warm state.
	cl, _ := coord.conns["provider"].current()
	cl.Close()
	var res *RoundResult
	got[1], res = round(coord)
	if h := res.Health["provider"]; h.State != want || h.Faults == 0 {
		t.Fatalf("provider ended %q after %d faults, want %q after a fault: %+v", h.State, h.Faults, want, h)
	}
	if ex := res.Targets[0].Explore; ex.NewPaths == 0 {
		t.Fatal("the new agent explored warm — the cold case is vacuous")
	}
	got[2], _ = round(coord)
	for i := range healthy {
		if got[i] != healthy[i] {
			t.Errorf("round %d diverged from the healthy fleet's:\n--- healthy ---\n%s\n--- %s ---\n%s", i+1, healthy[i], want, got[i])
		}
	}
}

// TestGracefulShutdown: Shutdown drains — a request already read is
// answered before its connection closes, and new connections are
// refused while the drain runs.
func TestGracefulShutdown(t *testing.T) {
	leakCheck(t)
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

	var ex ExploreResult
	p := cl.Go(MethodExplore, &ExploreParams{
		Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true, EngineKnobs: EngineKnobs{MaxRuns: 500},
	}, &ex)
	// Give the agent's reader time to pull the request off the wire; the
	// drain below must answer it, however far along the handler is.
	time.Sleep(100 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		ag.Shutdown(5 * time.Second)
		close(done)
	}()
	if err := p.Wait(); err != nil {
		t.Fatalf("in-flight explore failed during drain: %v", err)
	}
	if ex.Runs == 0 {
		t.Error("drained explore answered with zero runs")
	}
	// The answered connection is the last straggler: closing it lets the
	// drain finish inside the grace period instead of timing out.
	cl.Close()
	<-done

	// A drained agent refuses fresh connections.
	conn2, err := Loopback{Agent: ag}.Dial()
	if err == nil {
		cl2 := NewClient(conn2)
		defer cl2.Close()
		if _, err := cl2.Handshake(); err == nil {
			t.Error("handshake succeeded against a shut-down agent")
		}
	}
}

func newTestRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

package dist

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dice/internal/checkpoint"
	"dice/internal/core"
	"dice/internal/telemetry"
)

// replicaPool builds a pool of n in-process replicas over the pipe
// transport — the replica counterpart of loopbackCoordinator's dialers.
func replicaPool(n int) *ReplicaPool {
	p := &ReplicaPool{}
	for i := 0; i < n; i++ {
		p.Dialers = append(p.Dialers, ReplicaLoopback{Replica: NewReplica()})
	}
	return p
}

// tcpReplicaPool serves n replicas on real sockets and returns a pool of
// TCP dialers, mirroring TestDistributedTCP's agent setup.
func tcpReplicaPool(t *testing.T, n int) *ReplicaPool {
	t.Helper()
	p := &ReplicaPool{}
	for i := 0; i < n; i++ {
		r := NewReplica()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go r.ListenAndServe(ln) //nolint:errcheck // ends when ln closes
		p.Dialers = append(p.Dialers, TCPDialer{Addr: ln.Addr().String()})
	}
	return p
}

// TestReplicaWarmRounds: the frontier memory a replica returns with each
// shard must round-trip through the coordinator's warm cache back into
// the next round's shipment — the second round explores warm even though
// the agents themselves never ran the exploration.
func TestReplicaWarmRounds(t *testing.T) {
	opts := fedOpts()
	opts.ReuseState = true
	pool := replicaPool(2)
	coord := loopbackCoordinator(t, leakTopo3(), opts, WithReplicas(pool))
	if _, err := coord.Round(); err != nil {
		t.Fatal(err)
	}
	warm, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}
	ex := warm.Targets[0].Explore
	if ex.NewPaths != 0 {
		t.Errorf("warm replica round reported %d new paths, want 0", ex.NewPaths)
	}
	if ex.SkippedNegations == 0 {
		t.Error("warm replica round skipped no negations — the warm cache never shipped")
	}
	if st := pool.Stats(); st.Completed != 2 {
		t.Errorf("pool completed %d shards over two rounds, want 2", st.Completed)
	}
}

// TestReplicaPoolAutoscale drives the pool directly: with Min 1 and a
// backlog of concurrent shards, each behind a WAN-latency connection,
// the pool must recruit extra replicas — and an unbound pool must refuse
// to accept work at all.
func TestReplicaPoolAutoscale(t *testing.T) {
	leakCheck(t)
	if _, err := (&ReplicaPool{Dialers: []Dialer{ReplicaLoopback{Replica: NewReplica()}}}).submit(nil, nil); err == nil {
		t.Error("unbound pool accepted a shard")
	}

	pool := &ReplicaPool{Min: 1}
	for i := 0; i < 4; i++ {
		pool.Dialers = append(pool.Dialers, LatencyDialer{
			Inner: ReplicaLoopback{Replica: NewReplica()},
			RTT:   40 * time.Millisecond,
		})
	}
	if err := pool.bind(7, new(atomic.Uint64), chaosPolicy()); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.bind(7, new(atomic.Uint64), chaosPolicy()); err == nil {
		t.Error("pool bound twice")
	}

	// Shards carrying an unparseable config: the replica answers each
	// with an application error, which still exercises the queue, the
	// latency, and the autoscaler.
	const shards = 8
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = pool.submit(&ReplicaExploreParams{
				Node: "bogus", Config: []string{"not a router config"},
			}, checkpoint.NewStore(0).Take("empty", nil))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("shard %d: garbage config explored successfully", i)
		}
		if errors.Is(err, ErrReplicaPoolDown) {
			t.Fatalf("shard %d: pool died on an application error: %v", i, err)
		}
	}
	st := pool.Stats()
	if st.Completed != shards {
		t.Errorf("pool completed %d shards, want %d", st.Completed, shards)
	}
	if st.Scaled == 0 {
		t.Errorf("backlog of %d shards over %d-worker minimum never autoscaled: %+v", shards, 1, st)
	}
	if st.Started != st.Scaled+1 {
		t.Errorf("started %d workers with 1 initial and %d scaled", st.Started, st.Scaled)
	}
}

// gatedDialer is a replica Dialer that reports each Dial on dialed,
// waits for release when it is set, and then returns conn — or, when conn
// is nil, a refusal.
type gatedDialer struct {
	dialed  chan struct{}
	release chan struct{}
	conn    io.ReadWriteCloser
	dials   atomic.Int32
}

func (d *gatedDialer) Dial() (io.ReadWriteCloser, error) {
	d.dials.Add(1)
	d.dialed <- struct{}{}
	if d.release != nil {
		<-d.release
	}
	if d.conn == nil {
		return nil, errors.New("connection refused")
	}
	return d.conn, nil
}

// TestReplicaPoolCloseJoinsWorkers: Close stops a worker that is backing
// off between dials or blocked inside one, and returns only once it has
// exited — a closed coordinator leaves no goroutine dialing behind it.
func TestReplicaPoolCloseJoinsWorkers(t *testing.T) {
	leakCheck(t)
	policy := RetryPolicy{BackoffBase: 10 * time.Second, BackoffCap: 10 * time.Second}.withDefaults()

	t.Run("in-backoff", func(t *testing.T) {
		d := &gatedDialer{dialed: make(chan struct{}, 1)}
		pool := &ReplicaPool{Dialers: []Dialer{d}}
		if err := pool.bind(1, new(atomic.Uint64), policy); err != nil {
			t.Fatal(err)
		}
		<-d.dialed // refused: the worker now pauses 5–10 s before redialing
		start := time.Now()
		pool.Close()
		if took := time.Since(start); took > time.Second {
			t.Errorf("Close took %v with the worker in backoff", took)
		}
		if st := pool.Stats(); st.Active != 0 {
			t.Errorf("%d workers alive after Close", st.Active)
		}
		if n := d.dials.Load(); n != 1 {
			t.Errorf("%d dials, want the first one only", n)
		}
	})

	t.Run("in-dial", func(t *testing.T) {
		client, server := net.Pipe()
		defer server.Close()
		d := &gatedDialer{dialed: make(chan struct{}, 1), release: make(chan struct{}), conn: client}
		pool := &ReplicaPool{Dialers: []Dialer{d}}
		if err := pool.bind(1, new(atomic.Uint64), policy); err != nil {
			t.Fatal(err)
		}
		<-d.dialed
		closed := make(chan struct{})
		go func() {
			pool.Close()
			close(closed)
		}()
		<-pool.stop // Close has begun
		close(d.release)
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return after the dial was released")
		}
		if st := pool.Stats(); st.Active != 0 {
			t.Errorf("%d workers alive after Close", st.Active)
		}
		// The dial that completed after Close is closed, never handshaken.
		if n, err := server.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("the late connection is open: read %d bytes, err %v", n, err)
		}
	})
}

// deadAfterFirstDial passes one dial through and refuses the rest — the
// "replica stays dead" schedule for work-stealing tests.
func deadAfterFirstDial(inner Dialer) *FaultDialer {
	return &FaultDialer{Inner: inner, Plan: &FaultPlan{FailDialsFrom: 1}}
}

// TestReplicaWorkStealing kills a replica the instant its first
// explore_checkpoint request is written and refuses every redial: the
// pool must steal the orphaned shard back, recruit the standby replica,
// and land on the fault-free snapshot — the replica-side analogue of
// TestAgentDiesMidCall, with the recovery in the pool instead of the
// connection ladder.
func TestReplicaWorkStealing(t *testing.T) {
	leakCheck(t)
	clean := loopbackCoordinator(t, leakTopo3(), fedOpts())
	cleanRes, err := clean.Round()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(cleanRes.Snapshot(), "\n")

	kd := &killDialer{
		inner:  deadAfterFirstDial(ReplicaLoopback{Replica: NewReplica()}),
		method: MethodExploreCheckpoint,
	}
	pool := &ReplicaPool{
		// Min 1: the doomed replica is the only worker when the shard
		// arrives, so the kill always fires; the standby joins only when
		// the dying worker hands its shard back.
		Dialers: []Dialer{kd, ReplicaLoopback{Replica: NewReplica()}},
		Min:     1,
	}
	coord := loopbackCoordinator(t, leakTopo3(), fedOpts(),
		WithReplicas(pool), WithRetryPolicy(chaosPolicy()))
	res, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}
	if !kd.fired() {
		t.Fatal("the round never issued explore_checkpoint to the doomed replica — kill case vacuous")
	}
	if got := strings.Join(res.Snapshot(), "\n"); got != want {
		t.Errorf("snapshot diverged after replica kill:\n--- clean ---\n%s\n--- stolen ---\n%s", want, got)
	}
	st := pool.Stats()
	if st.Requeues == 0 {
		t.Errorf("no shard was stolen back from the dead replica: %+v", st)
	}
	if st.Started != 2 {
		t.Errorf("pool started %d workers, want 2 (victim + recruited standby): %+v", st.Started, st)
	}
	for n, h := range res.Health {
		if h.State != HealthHealthy {
			t.Errorf("agent %s ended %q — replica faults must not touch agent health", n, h.State)
		}
	}
}

// TestReplicaPoolDownDegradesToAgents: when the last replica dies with
// no standby, the pool reports itself down and the round's exploration
// falls back to the owning agents — same findings, degraded locality,
// never a failed round.
func TestReplicaPoolDownDegradesToAgents(t *testing.T) {
	leakCheck(t)
	clean := loopbackCoordinator(t, leakTopo3(), fedOpts())
	cleanRes, err := clean.Round()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(cleanRes.Snapshot(), "\n")

	kd := &killDialer{
		inner:  deadAfterFirstDial(ReplicaLoopback{Replica: NewReplica()}),
		method: MethodExploreCheckpoint,
	}
	pool := &ReplicaPool{Dialers: []Dialer{kd}}
	coord := loopbackCoordinator(t, leakTopo3(), fedOpts(),
		WithReplicas(pool), WithRetryPolicy(chaosPolicy()))
	res, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}
	if !kd.fired() {
		t.Fatal("the round never issued explore_checkpoint — kill case vacuous")
	}
	if got := strings.Join(res.Snapshot(), "\n"); got != want {
		t.Errorf("snapshot diverged after pool death:\n--- clean ---\n%s\n--- degraded ---\n%s", want, got)
	}
	st := pool.Stats()
	if st.Active != 0 {
		t.Errorf("dead pool reports %d active workers", st.Active)
	}
	// A later round must not hang on the dead pool either.
	res2, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res2.Snapshot(), "\n"); got != want {
		t.Errorf("second round against a dead pool diverged:\n--- clean ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestReplicaSeedErrorFailsRound: an application error from the seed RPC
// is the round's error. It used to be swallowed into an agent-side
// explore, which cost a second RPC to rediscover the same failure.
func TestReplicaSeedErrorFailsRound(t *testing.T) {
	topo := leakTopo3()
	topo.Explore[0].Scenario = "no-such-scenario"
	tm := NewMetrics(telemetry.NewRegistry())
	coord := loopbackCoordinator(t, topo, fedOpts(), WithReplicas(replicaPool(1)), WithTelemetry(tm))
	_, err := coord.Round()
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("round err = %v, want the seed RPC's unknown-scenario error", err)
	}
	if n := tm.rpcCalls.With(MethodExplore).Value(); n != 0 {
		t.Errorf("%d explore RPCs after a failed seed, want 0", n)
	}
}

// TestAgentDiesMidCheckpointFetch kills the agent's connection the
// instant the coordinator's checkpoint request is written: the recovery
// ladder must reconnect and the retried fetch must answer from the
// agent's page-table path, leaving the replica round at parity.
func TestAgentDiesMidCheckpointFetch(t *testing.T) {
	leakCheck(t)
	clean := loopbackCoordinator(t, leakTopo3(), fedOpts())
	cleanRes, err := clean.Round()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(cleanRes.Snapshot(), "\n")

	kd := &killDialer{method: MethodCheckpoint}
	coord := fleetCoordinator(t, leakTopo3(), fedOpts(), kd.on("provider"),
		WithReplicas(replicaPool(2)), WithRetryPolicy(chaosPolicy()))
	res, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}
	if !kd.fired() {
		t.Fatal("the round never fetched a checkpoint from provider — kill case vacuous")
	}
	if got := strings.Join(res.Snapshot(), "\n"); got != want {
		t.Errorf("snapshot diverged after mid-checkpoint kill:\n--- clean ---\n%s\n--- faulty ---\n%s", want, got)
	}
	if h := res.Health["provider"]; h.Reconnects == 0 {
		t.Errorf("provider health records no reconnect: %+v", h)
	}
}

// TestWarmHandoffAfterDegrade is the warm-handoff acceptance: a node
// whose agent dies past the reconnect budget AND whose replica pool is
// gone must explore round 2 on its degraded replacement agent seeded
// from the warm cache the replicas built in round 1 — warm (frontier
// skips, no new paths), not cold, and at parity with an all-healthy
// two-round run.
func TestWarmHandoffAfterDegrade(t *testing.T) {
	leakCheck(t)
	opts := fedOpts()
	opts.ReuseState = true

	// Reference: two healthy rounds, no replicas.
	ref := loopbackCoordinator(t, leakTopo3(), opts)
	if _, err := ref.Round(); err != nil {
		t.Fatal(err)
	}
	refWarm, err := ref.Round()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(refWarm.Snapshot(), "\n")

	// Provider's connection 0 is clean; once it dies, every redial is
	// refused — the agent stays dead.
	providerStaysDead := func(node string, d Dialer) Dialer {
		if node == "provider" {
			return deadAfterFirstDial(d)
		}
		return d
	}
	pool := replicaPool(1)
	coord := fleetCoordinator(t, leakTopo3(), opts, providerStaysDead, WithReplicas(pool), WithRetryPolicy(chaosPolicy()))
	if _, err := coord.Round(); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Completed != 1 {
		t.Fatalf("round 1 explored %d shards on the pool, want 1", st.Completed)
	}

	// Between rounds the whole exploration substrate dies: the pool
	// closes and provider's agent connection drops with no redial
	// allowed. Round 2 must degrade provider to an in-process
	// replacement — and hand it the warm state its shard accumulated on
	// the replicas.
	pool.Close()
	cl, _ := coord.conns["provider"].current()
	cl.Close()

	res, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}
	if h := res.Health["provider"]; h.State != HealthDegraded {
		t.Fatalf("provider ended %q, want degraded: %+v", h.State, h)
	}
	ex := res.Targets[0].Explore
	if ex.NewPaths != 0 {
		t.Errorf("degraded replacement explored cold: %d new paths, want 0", ex.NewPaths)
	}
	if ex.SkippedNegations == 0 {
		t.Error("degraded replacement reports no frontier skips — warm state never reached it")
	}
	if got := strings.Join(res.Snapshot(), "\n"); got != want {
		t.Errorf("warm-handoff snapshot diverged:\n--- healthy warm round ---\n%s\n--- degraded ---\n%s", want, got)
	}
}

// TestSeedExploreState: frontier memory exported by a replica must
// decode and attach to a fresh agent, whose next ReuseState explore
// runs warm; garbage must be refused.
func TestSeedExploreState(t *testing.T) {
	topo := leakTopo3()
	ck, seed := checkpointAndSeed(t, topo)
	r := NewReplica()
	boundary, err := topo.BoundaryCommunity()
	if err != nil {
		t.Fatal(err)
	}
	params := &ReplicaExploreParams{
		Node: "provider", Config: topo.Nodes[1].Config,
		Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true,
		EngineKnobs: EngineKnobs{MaxRuns: 1000}, Boundary: boundary, Seed: seed,
	}
	params.ship(ck, nil)
	out, err := r.explore(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.WarmState) == 0 {
		t.Fatal("replica explore returned no warm state")
	}

	ag, err := NewAgent(topo, "provider")
	if err != nil {
		t.Fatal(err)
	}
	if err := ag.SeedExploreState(core.ScenarioRouteLeak, "customer", []byte("garbage")); err == nil {
		t.Error("SeedExploreState accepted undecodable bytes")
	}
	if err := ag.SeedExploreState(core.ScenarioRouteLeak, "customer", out.WarmState); err != nil {
		t.Fatal(err)
	}
	conn, err := (Loopback{Agent: ag}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	defer cl.Close()
	var ex ExploreResult
	err = cl.Call(MethodExplore, &ExploreParams{
		Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true,
		EngineKnobs: EngineKnobs{MaxRuns: 1000}, ReuseState: true,
	}, &ex)
	if err != nil {
		t.Fatal(err)
	}
	if ex.NewPaths != 0 || ex.SkippedNegations == 0 {
		t.Errorf("seeded agent explored cold: %d new paths, %d skipped negations", ex.NewPaths, ex.SkippedNegations)
	}
}

// checkpointAndSeed fetches a provider checkpoint and its
// provider←customer scenario seed over the wire, for tests that build
// ReplicaExploreParams by hand. The checkpoint comes back paged as the
// coordinator pages it.
func checkpointAndSeed(t *testing.T, topo *core.Topology) (*checkpoint.Snapshot, []byte) {
	t.Helper()
	ag, err := NewAgent(topo, "provider")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := (Loopback{Agent: ag}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	defer cl.Close()
	var ck CheckpointResult
	if err := cl.Call(MethodCheckpoint, nil, &ck); err != nil {
		t.Fatal(err)
	}
	var sr SeedResult
	if err := cl.Call(MethodSeed, &SeedParams{Peer: "customer", Scenario: core.ScenarioRouteLeak}, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Missing != "" || sr.Unsupported || len(sr.Msg) == 0 {
		t.Fatalf("no shippable seed: %+v", sr)
	}
	return checkpoint.NewStore(0).TakeChunks("provider", ck.Chunks), sr.Msg
}

// TestReplicaSessionScopedMemos mirrors TestSessionScopedExploreMemos on
// the replica: the (Shard, Round) idempotency memo must answer retries
// within one coordinator session and be dropped when a new session
// nonce arrives — a second dice run's round 1 must re-execute, not read
// the first run's shard answer.
func TestReplicaSessionScopedMemos(t *testing.T) {
	topo := leakTopo3()
	ck, seed := checkpointAndSeed(t, topo)
	boundary, err := topo.BoundaryCommunity()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica()
	dial := func(session uint64) *Client {
		t.Helper()
		conn, err := (ReplicaLoopback{Replica: r}).Dial()
		if err != nil {
			t.Fatal(err)
		}
		cl := NewClient(conn)
		cl.Session = session
		if _, err := cl.Handshake(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	explore := func(cl *Client, maxRuns int) ReplicaExploreResult {
		t.Helper()
		var out ReplicaExploreResult
		params := &ReplicaExploreParams{
			Node: "provider", Config: topo.Nodes[1].Config,
			Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true,
			EngineKnobs: EngineKnobs{MaxRuns: maxRuns}, Boundary: boundary, Seed: seed,
			Key: 1, Shard: core.WarmKey("provider", core.ScenarioRouteLeak, "customer"),
		}
		params.ship(ck, nil)
		if err := cl.Call(MethodExploreCheckpoint, params, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	first := explore(dial(111), 500)
	if first.Runs <= 1 {
		t.Fatalf("reference explore finished in %d runs; the memo checks below need a multi-run exploration", first.Runs)
	}
	// Same session, new connection (a pool worker reconnecting): the
	// memo answers even though the params now cap the engine at one run.
	if out := explore(dial(111), 1); out.Runs != first.Runs {
		t.Errorf("same-session retry re-executed: %d runs, want memoized %d", out.Runs, first.Runs)
	}
	// New session: its own round 1 must not read the old memo.
	if out := explore(dial(222), 1); out.Runs == first.Runs {
		t.Errorf("new session answered from the previous session's memo (%d runs)", out.Runs)
	}
}

// TestReplicaRefusesAgentMethods: a replica is not an agent — node-bound
// methods must fail loudly rather than answer nonsense, and Connect must
// reject a replica dialed where an agent was expected.
func TestReplicaRefusesAgentMethods(t *testing.T) {
	conn, err := (ReplicaLoopback{Replica: NewReplica()}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	defer cl.Close()
	if _, err := cl.Handshake(); err != nil {
		t.Fatal(err)
	}
	var ex ExploreResult
	if err := cl.Call(MethodExplore, &ExploreParams{Peer: "customer"}, &ex); err == nil {
		t.Error("replica answered a node-bound explore")
	} else if !strings.Contains(err.Error(), "does not serve") {
		t.Errorf("unexpected refusal: %v", err)
	}

	topo := leakTopo3()
	dialers := []Dialer{ReplicaLoopback{Replica: NewReplica()}}
	for _, n := range topo.Nodes[1:] {
		ag, err := NewAgent(topo, n.Name)
		if err != nil {
			t.Fatal(err)
		}
		dialers = append(dialers, Loopback{Agent: ag})
	}
	if _, err := Connect(topo, fedOpts(), dialers); err == nil {
		t.Error("Connect accepted a replica in the agent fleet")
	}
}

package dist

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"dice/internal/bgp"
	"dice/internal/checkpoint"
	"dice/internal/core"
	"dice/internal/minimize"
	"dice/internal/netaddr"
	"dice/internal/telemetry"
)

// Coordinator is the RPC Fleet: it reaches a set of node agents over the
// wire protocol and implements core.Fleet / core.Shadows on top of
// them, so core.Driver — the same driver that runs
// core.FederatedExperiment in-process — runs distributed rounds. None of
// the round algorithm lives here. What does: connections and their
// fault-recovery ladder, the phase-1 fan-out (agents or the replica
// pool), shadow sets and their relay step — core.Relay schedules a
// witness group's waves, and a step here is one pipelined inject_witness
// per agent — replay, and telemetry.
//
// Fault tolerance (health.go, fault.go): every RPC carries the client's
// per-call deadline, a broken or timed-out connection is re-dialed with
// capped exponential backoff, and when the reconnect budget runs out the
// node transparently degrades to an in-process replacement agent — the
// mixed-fleet fallback. Retried RPCs are idempotent: explores are keyed
// on the round sequence, witness deliveries on per-shadow delivery keys,
// replays on history keys, so at-least-once delivery has exactly-once
// effects and a faulty run converges on the identical finding snapshot.
// The one fault the driver hears about is a shadow set that died with a
// replaced agent (core.ErrShadowLost); it replays the witness.
type Coordinator struct {
	Topo *core.Topology

	// driver holds the round's options, boundary and compiled property
	// set, resolved exactly as in-process (core.NewDriver), and runs the
	// rounds. propSrcs is that property set in canonical source form,
	// shipped to every agent in the hello so inject_witness WantProps
	// answers index-align with it.
	driver   *core.Driver
	propSrcs []string

	conns map[string]*nodeConn
	nodes []string // sorted node names
	// nodeAS maps node name → AS number, from each agent's hello; it
	// resolves `never reachable via AS` path checks. Written only during
	// Connect, read-only afterwards.
	nodeAS map[string]uint16

	policy RetryPolicy

	// metrics and tracer instrument the coordinator and every client it
	// dials (WithTelemetry / WithTracer); both are nil-safe no-ops.
	metrics *Metrics
	tracer  *telemetry.Tracer

	// replicas, when set, offloads phase-1 exploration to a pool of
	// stateless workers: each round the coordinator checkpoints the node
	// over MethodCheckpoint, derives the scenario seed over MethodSeed,
	// and ships both to whichever replica pulls the shard. configs holds
	// each node's config lines for the shipment; warm holds the
	// per-shard frontier memory the replicas return (ReuseState only) —
	// it both keeps rounds incremental as shards migrate between
	// replicas and seeds degraded replacement agents warm.
	replicas *ReplicaPool
	configs  map[string][]string
	warmMu   sync.Mutex
	warm     map[string][]byte // core.WarmKey → ExploreState wire encoding

	// session is a random nonce minted once per Connect and sent in every
	// hello. Agents scope their explore/replay memos to it: the keys below
	// are coordinator-local sequences restarting at 1, so without the
	// nonce a long-lived agent would answer a fresh run's round 1 with a
	// previous run's memo. Reconnects reuse the nonce, so retried RPCs
	// still hit the memos within the session.
	session uint64

	// roundSeq is the explore idempotency key, minted by Explore; explored
	// holds that Explore's raw per-target answers for Round to report.
	// Round is not reentrant.
	roundSeq uint64
	explored []*ExploreResult

	replayMu      sync.Mutex
	replaySeq     uint64
	replayHistory []ReplayParams // keyed, successful replays; re-shipped to replacement agents
}

// nodeConn manages one node's connection through faults: the current
// client, a generation counter bumped on every swap (so concurrent
// callers recognize a recovery they didn't perform), and the health
// record. Recovery is single-flight: mu is held across the whole
// re-dial/backoff episode, and callers blocked in current() simply pick
// up the replacement.
type nodeConn struct {
	node   string
	dialer Dialer

	mu      sync.Mutex
	client  *Client // nil once failed (NoFallback exhausted)
	gen     uint64
	health  NodeHealth
	failErr error      // sticky, set when State == HealthFailed
	rng     *rand.Rand // deterministic backoff jitter, guarded by mu
}

// current returns the live client and its generation. A nil client
// means the node is failed; failedErr has the sticky error.
func (nc *nodeConn) current() (*Client, uint64) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.client, nc.gen
}

func (nc *nodeConn) failedErr() error {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.failErr != nil {
		return nc.failErr
	}
	return fmt.Errorf("dist: node %q has no live connection", nc.node)
}

func (nc *nodeConn) noteFault(err error) {
	nc.mu.Lock()
	nc.health.Faults++
	nc.health.LastFault = err.Error()
	nc.mu.Unlock()
}

// ConnOption tunes how Connect drives the wire protocol.
type ConnOption func(*Coordinator)

// WithRetryPolicy sets the fault-handling knobs: per-call RPC deadline,
// reconnect budget and backoff shape, degraded-fallback switch, jitter
// seed. Zero fields take the RetryPolicy defaults.
func WithRetryPolicy(p RetryPolicy) ConnOption {
	return func(c *Coordinator) { c.policy = p }
}

// WithTelemetry instruments the coordinator and every connection it
// dials with the given metrics bundle (build one with NewMetrics). Round
// accounting, per-method RPC counters/latency, node health gauges and
// replica-pool gauges all record into it; nil disables telemetry.
func WithTelemetry(m *Metrics) ConnOption {
	return func(c *Coordinator) { c.metrics = m }
}

// WithTracer records round, explore and per-RPC spans into tr for
// Chrome-trace export (`dice -trace-out`). nil disables tracing.
func WithTracer(tr *telemetry.Tracer) ConnOption {
	return func(c *Coordinator) { c.tracer = tr }
}

// WithReplicas offloads each round's exploration phase to a pool of
// stateless replicas over the checkpoint RPC. The pool binds to this
// coordinator's session and retry policy at Connect and closes with it.
// Targets whose scenario seed cannot ship (SeedResult.Unsupported)
// explore on their agent as before; a pool whose replicas all die
// degrades the same way instead of failing the round.
func WithReplicas(pool *ReplicaPool) ConnOption {
	return func(c *Coordinator) { c.replicas = pool }
}

// Health reports each node's fault-tolerance record: state (healthy /
// degraded / failed), reconnect and fault counts. A fresh coordinator
// reports every node healthy with zero counts.
func (c *Coordinator) Health() map[string]NodeHealth {
	out := make(map[string]NodeHealth, len(c.conns))
	for n, nc := range c.conns {
		nc.mu.Lock()
		h := nc.health
		nc.mu.Unlock()
		if h.State == "" {
			h.State = HealthHealthy
		}
		out[n] = h
	}
	return out
}

// TargetResult is one node's share of a distributed round.
type TargetResult struct {
	Node     string
	Peer     string
	Scenario string
	// Skipped records a defaulted target with no observed seed (the
	// distributed form of core.FederatedTargetResult.Err).
	Skipped string
	// Explore carries the agent's exploration stats.
	Explore *ExploreResult
	// Findings are the local oracle findings — the same slice as
	// Explore.Findings. Witness/MinimalWitness land here after
	// cross-domain propagation, exactly as on the in-process backend's
	// Result.Findings.
	Findings []core.Finding
	// Minimization aggregates witness-minimization work over this
	// target's findings (nil unless the round ran with
	// FederatedOptions.Minimize and a witness triggered violations) —
	// the distributed form of core.Result.Minimization.
	Minimization *minimize.Stats
}

// RoundResult is the outcome of one distributed federated round.
// Violations reuse the in-process type, so the two backends' verdicts
// compare directly (the parity test depends on this).
type RoundResult struct {
	Targets           []TargetResult
	Violations        []core.FederatedViolation
	WitnessesInjected int
	WitnessesSkipped  int
	PropagationSteps  int
	Elapsed           time.Duration
	// Health is the per-node fault record as of the end of the round.
	// It is deliberately NOT part of Snapshot(): a degraded run must
	// produce the identical snapshot as an all-healthy one, and the
	// chaos parity tests compare exactly that.
	Health map[string]NodeHealth
}

// Snapshot renders the round canonically for golden-file comparison, in
// the form core.FederatedResult.Snapshot renders the in-process one, so
// one golden file checks either backend.
func (res *RoundResult) Snapshot() []string {
	blocks := make([][]string, len(res.Targets))
	for i, tr := range res.Targets {
		blocks[i] = core.SnapshotTarget(tr.Node, tr.Peer, tr.Scenario, tr.Skipped, tr.Findings)
	}
	return core.SnapshotRound(blocks, res.Violations, res.WitnessesInjected, res.WitnessesSkipped, res.PropagationSteps)
}

// Connect dials one agent per dialer, identifies each, and checks the
// set exactly covers the topology: every node independently
// administered, none orphaned, none doubled. Transient dial and
// handshake failures are retried within the RetryPolicy's reconnect
// budget; identity errors (wrong protocol version, wrong topology,
// duplicate node) fail fast.
func Connect(topo *core.Topology, opts core.FederatedOptions, dialers []Dialer, copts ...ConnOption) (*Coordinator, error) {
	if opts.Engine.Cancel != nil {
		// A process-local handle cannot cross the wire; refusing beats
		// silently exploring unbounded on the agents.
		return nil, fmt.Errorf("dist: Engine.Cancel is process-local and cannot be used distributed")
	}
	driver, err := core.NewDriver(topo, opts)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		Topo:   topo,
		driver: driver,
		conns:  make(map[string]*nodeConn, len(dialers)),
		nodeAS: make(map[string]uint16, len(topo.Nodes)),
	}
	for _, p := range driver.Props {
		c.propSrcs = append(c.propSrcs, p.Source())
	}
	for _, o := range copts {
		o(c)
	}
	c.policy = c.policy.withDefaults()
	c.session = newSessionNonce()
	if c.replicas != nil {
		c.replicas.setMetrics(c.metrics)
		if err := c.replicas.bind(c.session, c.policy); err != nil {
			return nil, err
		}
		c.configs = make(map[string][]string, len(topo.Nodes))
		for _, n := range topo.Nodes {
			c.configs[n.Name] = n.Config
		}
		c.warm = make(map[string][]byte)
	}
	crng := rand.New(rand.NewSource(c.policy.Seed))
	for _, d := range dialers {
		var (
			cl    *Client
			hello HelloResult
		)
		err := c.policy.redial(crng, true, nil, func() (err error) {
			cl, hello, err = c.dialAndHello(d)
			return err
		}, identityErr)
		if err != nil {
			c.Close()
			return nil, err
		}
		if _, dup := c.conns[hello.Node]; dup {
			cl.Close()
			c.Close()
			return nil, fmt.Errorf("dist: two agents claim node %q", hello.Node)
		}
		c.nodeAS[hello.Node] = hello.AS
		c.conns[hello.Node] = &nodeConn{
			node:   hello.Node,
			dialer: d,
			client: cl,
			rng:    rand.New(rand.NewSource(c.policy.Seed ^ int64(nodeHash(hello.Node)))),
		}
	}
	for _, n := range topo.Nodes {
		if _, ok := c.conns[n.Name]; !ok {
			c.Close()
			return nil, fmt.Errorf("dist: no agent for node %q", n.Name)
		}
		c.nodes = append(c.nodes, n.Name)
	}
	sort.Strings(c.nodes)
	return c, nil
}

// nodeHash gives each node a stable 64-bit identity for seeding its
// jitter stream independently of fleet ordering.
func nodeHash(node string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	return h.Sum64()
}

// newSessionNonce mints the coordinator's session nonce. It comes from
// crypto/rand — not the RetryPolicy's seeded jitter rng — because two
// coordinator processes configured with the same seed must still get
// distinct sessions. Never 0: agents treat 0 as "no nonce sent".
func newSessionNonce() uint64 {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			// No entropy source is effectively unreachable on supported
			// platforms; a time-derived nonce still separates sessions.
			return uint64(time.Now().UnixNano()) | 1
		}
		if n := binary.BigEndian.Uint64(b[:]); n != 0 {
			return n
		}
	}
}

// dialAndHello establishes one identified connection: the handshake, then
// the topology identity and the connection's telemetry.
func (c *Coordinator) dialAndHello(d Dialer) (*Client, HelloResult, error) {
	cl, hello, err := c.policy.handshake(d, c.session, c.propSrcs)
	if err != nil {
		return nil, HelloResult{}, err
	}
	if hello.Topology != c.Topo.Name {
		cl.Close()
		return nil, HelloResult{}, fmt.Errorf("dist: agent for %q administers topology %q, coordinator drives %q",
			hello.Node, hello.Topology, c.Topo.Name)
	}
	if c.metrics != nil || c.tracer != nil {
		cl.setTelemetry(c.metrics, c.tracer, hello.Node)
	}
	return cl, hello, nil
}

// Close closes every agent connection and shuts down the replica pool.
func (c *Coordinator) Close() error {
	var first error
	if c.replicas != nil {
		c.replicas.Close()
	}
	for _, nc := range c.conns {
		cl, _ := nc.current()
		if cl == nil {
			continue
		}
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// call issues one RPC against a node with the full fault-recovery
// ladder: the client's per-call deadline bounds each attempt, a
// transport fault (broken stream, timeout) triggers single-flight
// recovery — reconnect with backoff, then the degraded in-process
// fallback — and the call retries on the replacement. result is
// re-zeroed before every attempt so a partial decode never leaks into a
// retry. Application errors return immediately; retried methods are
// idempotent by key, so at-least-once delivery is safe.
func (c *Coordinator) call(node, method string, params, result any) error {
	nc, ok := c.conns[node]
	if !ok {
		return fmt.Errorf("dist: no agent for node %q", node)
	}
	var lastErr error
	// One attempt per client generation the recovery ladder can hand us,
	// plus the original: reconnects, then the degraded fallback.
	attempts := c.policy.MaxReconnects + 2
	for i := 0; i < attempts; i++ {
		cl, gen := nc.current()
		if cl == nil {
			return nc.failedErr()
		}
		zeroResult(result)
		err := cl.Call(method, params, result)
		if err == nil {
			return nil
		}
		if !isConnFault(err) {
			return err
		}
		lastErr = err
		nc.noteFault(err)
		c.metrics.noteNodeFault(node)
		if rerr := c.recover(nc, gen, cl); rerr != nil {
			return rerr
		}
	}
	return lastErr
}

// goNode starts one pipelined call on a node's current client (no
// retry; fan-out callers route transport faults through call for the
// recovery ladder).
func (c *Coordinator) goNode(node, method string, params, result any) *Pending {
	nc := c.conns[node]
	cl, _ := nc.current()
	if cl == nil {
		p := &Pending{method: method, errc: make(chan error, 1)}
		p.errc <- nc.failedErr()
		return p
	}
	return cl.Go(method, params, result)
}

// recover is the single-flight recovery ladder for one node. gen is the
// generation the caller's failed client belonged to: if the node has
// already moved past it, another caller recovered concurrently and this
// one just retries. Otherwise: close the failed client, re-dial with
// capped exponential backoff + deterministic jitter (re-running hello
// and re-shipping the replay history), and after the reconnect budget
// runs out, degrade to an in-process replacement agent — unless
// NoFallback, which marks the node failed.
func (c *Coordinator) recover(nc *nodeConn, gen uint64, failed *Client) error {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.gen != gen {
		return nil // already recovered by a concurrent caller
	}
	if nc.client == nil {
		return nc.failErr
	}
	failed.Close()
	lastErr := c.policy.redial(nc.rng, false, nil, func() error {
		cl, hello, err := c.dialAndHello(nc.dialer)
		if err != nil {
			return err
		}
		if hello.Node != nc.node {
			cl.Close()
			return fmt.Errorf("dist: reconnect for %q reached agent for %q", nc.node, hello.Node)
		}
		if err := c.reestablish(cl); err != nil {
			cl.Close()
			return err
		}
		nc.client = cl
		return nil
	}, nil)
	if lastErr == nil {
		nc.gen++
		nc.health.Reconnects++
		nc.health.State = HealthHealthy
		c.metrics.noteClientReconnect(nc.node)
		return nil
	}
	if c.policy.NoFallback {
		nc.client = nil
		nc.gen++
		nc.health.State = HealthFailed
		nc.failErr = fmt.Errorf("dist: node %q failed after %d reconnect attempts: %w",
			nc.node, c.policy.MaxReconnects, lastErr)
		return nc.failErr
	}
	// Degraded mixed-fleet fallback: build an in-process replacement
	// agent for this node and splice it in over a loopback pipe. The
	// replacement runs the identical deterministic pipeline the remote
	// did (same topology build, same PrepareTarget/Analyze path), and
	// reestablish replays the coordinator's replay history into it, so
	// findings are unaffected — parity with the all-healthy run holds.
	local, err := NewAgent(c.Topo, nc.node)
	if err != nil {
		nc.client = nil
		nc.gen++
		nc.health.State = HealthFailed
		nc.failErr = fmt.Errorf("dist: degraded fallback for %q: %w", nc.node, err)
		return nc.failErr
	}
	c.seedWarmState(local, nc.node)
	cl, _, err := c.dialAndHello(Loopback{Agent: local})
	if err == nil {
		err = c.reestablish(cl)
	}
	if err != nil {
		if cl != nil {
			cl.Close()
		}
		nc.client = nil
		nc.gen++
		nc.health.State = HealthFailed
		nc.failErr = fmt.Errorf("dist: degraded fallback for %q: %w", nc.node, err)
		return nc.failErr
	}
	nc.client = cl
	nc.gen++
	nc.health.State = HealthDegraded
	return nil
}

// seedWarmState hands a degraded replacement agent the frontier memory
// the dead node's shards accumulated on the replicas: the replacement's
// next ReuseState explore runs warm instead of cold, closing the one
// gap reestablish's comment concedes. Without a replica pool (or
// without ReuseState) there is nothing cached and the replacement
// explores cold, exactly as before.
func (c *Coordinator) seedWarmState(local *Agent, node string) {
	if c.replicas == nil || !c.driver.Opts.ReuseState {
		return
	}
	c.warmMu.Lock()
	defer c.warmMu.Unlock()
	for _, tg := range c.Topo.ResolveTargets(c.driver.Opts.DefaultScenario) {
		if data, ok := c.warm[core.WarmKey(tg.Node, tg.Scenario, tg.Peer)]; ok && tg.Node == node {
			// Best effort: an undecodable entry just leaves that shard cold.
			_ = local.SeedExploreState(tg.Scenario, tg.Peer, data)
		}
	}
}

// reestablish brings a (re)connected agent up to date: the coordinator's
// replay history is re-shipped in order. The history holds only replays
// that succeeded fleet-wide (Replay commits on success), so recovery
// never re-runs a known-failing entry. Every entry is keyed, so a
// surviving agent that merely lost its connection answers from its
// memo and applies nothing twice, while a fresh replacement (restarted
// process, degraded in-process agent) replays the lot and converges
// onto the fleet's deterministic post-replay state. Exploration warm
// state (ReuseState) is the one thing a replacement cannot recover —
// its next explore runs cold, which is correct but may re-report known
// paths; the memoized explore round keys keep retries of the *current*
// round exact either way.
func (c *Coordinator) reestablish(cl *Client) error {
	c.replayMu.Lock()
	history := append([]ReplayParams(nil), c.replayHistory...)
	c.replayMu.Unlock()
	for i := range history {
		var out ReplayResult
		if err := cl.Call(MethodReplay, &history[i], &out); err != nil {
			return fmt.Errorf("dist: re-establish replay history: %w", err)
		}
	}
	return nil
}

// zeroResult clears a result struct between call attempts so a retry
// decodes into pristine memory (a partial decode from a fault must not
// survive into the next attempt's omitempty fields).
func zeroResult(v any) {
	if v == nil {
		return
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv.Elem().SetZero()
	}
}

// Round runs one distributed federated round: core.Driver's round over
// this fleet, reported in the distributed result shape with the agents'
// exploration stats and the fleet's health attached.
func (c *Coordinator) Round() (*RoundResult, error) {
	// Explore mints the round key this span is named after.
	roundSpan := c.tracer.Start("coordinator", fmt.Sprintf("round %d", c.roundSeq+1))
	defer roundSpan.End()
	fr, err := c.driver.Round(c)
	if err != nil {
		return nil, err
	}
	res := &RoundResult{
		Targets:           make([]TargetResult, len(fr.Targets)),
		Violations:        fr.Violations,
		WitnessesInjected: fr.WitnessesInjected,
		WitnessesSkipped:  fr.WitnessesSkipped,
		PropagationSteps:  fr.PropagationSteps,
		Elapsed:           fr.Elapsed,
		Health:            c.Health(),
	}
	for i, tr := range fr.Targets {
		out := c.explored[i]
		res.Targets[i] = TargetResult{Node: tr.Node, Peer: tr.Peer, Scenario: tr.Scenario, Explore: out, Skipped: out.Skipped}
		if tr.Result != nil {
			res.Targets[i].Findings = tr.Result.Findings
			res.Targets[i].Minimization = tr.Result.Minimization
		}
	}
	c.metrics.noteRound(res)
	return res, nil
}

// CheckWitnesses checks a sequence of witnesses in order on this fleet,
// sharing shadow sets across disjoint-prefix runs (core.Driver.CheckWitnesses).
func (c *Coordinator) CheckWitnesses(specs []WitnessSpec) ([]*core.WitnessOutcome, error) {
	return c.driver.CheckWitnesses(c, specs)
}

// WitnessSpec names one concrete witness to check.
type WitnessSpec = core.WitnessSpec

// Nodes lists the fleet's node names, sorted (core.Fleet).
func (c *Coordinator) Nodes() []string { return c.nodes }

// NodeAS resolves a node name to the AS its agent reported (core.Fleet).
func (c *Coordinator) NodeAS(name string) (uint16, bool) {
	as, ok := c.nodeAS[name]
	return as, ok
}

// Explore is phase 1 over the wire (core.Fleet): fan the targets out to
// the owning agents — or the replica pool — one goroutine per target
// (calls to the same agent serialize on its connection), then reassemble
// each answer's findings and concrete witnesses. Every call mints a new
// round key, which makes retried explores exact: an agent that already
// ran this round's explore answers from its memo.
func (c *Coordinator) Explore(targets []core.ResolvedTarget) ([]core.TargetOutcome, error) {
	c.roundSeq++
	round := c.roundSeq
	raw := make([]*ExploreResult, len(targets))
	errs := make([]error, len(targets))
	ckpts := newCheckpointCache()
	for _, tg := range targets {
		if _, ok := c.conns[tg.Node]; !ok {
			return nil, fmt.Errorf("dist: no agent for node %q", tg.Node)
		}
	}
	var wg sync.WaitGroup
	for i, tg := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := c.tracer.Start("explore/"+tg.Node, tg.Scenario+"/"+tg.Peer)
			raw[i], errs[i] = c.exploreTarget(tg, round, ckpts)
			sp.End()
		}()
	}
	wg.Wait()
	outs := make([]core.TargetOutcome, len(targets))
	for i, tg := range targets {
		if errs[i] != nil {
			return nil, errs[i]
		}
		var err error
		if outs[i], err = decodeOutcome(tg, raw[i]); err != nil {
			return nil, err
		}
	}
	c.explored = raw
	return outs, nil
}

// decodeOutcome reassembles one agent answer into the driver's terms. A
// skip is the agent's own decision (it knows whether the target was
// explicit), reported the way the driver recognizes one.
func decodeOutcome(tg core.ResolvedTarget, out *ExploreResult) (core.TargetOutcome, error) {
	if out.Skipped != "" {
		return core.TargetOutcome{Err: &core.SeedUnavailableError{Err: errors.New(out.Skipped)}}, nil
	}
	r := &core.Result{
		Scenario:          out.Scenario,
		CapturedMessages:  out.CapturedMessages,
		WitnessesRejected: out.WitnessesRejected,
		Findings:          out.Findings,
	}
	var refs []core.WitnessRef
	for _, ww := range out.Witnesses {
		m, err := bgp.Decode(ww.Msg)
		if err != nil {
			return core.TargetOutcome{}, fmt.Errorf("dist: %s/%s witness: %w", tg.Node, tg.Peer, err)
		}
		u, ok := m.(*bgp.Update)
		if !ok || len(u.NLRI) == 0 {
			continue
		}
		if ww.Finding < 0 || ww.Finding >= len(r.Findings) {
			return core.TargetOutcome{}, fmt.Errorf("dist: %s/%s witness references finding %d of %d", tg.Node, tg.Peer, ww.Finding, len(r.Findings))
		}
		refs = append(refs, core.WitnessRef{Finding: ww.Finding, Update: u})
	}
	return core.TargetOutcome{Result: r, Witnesses: refs}, nil
}

// exploreTarget runs one target's phase-1 exploration: on the replica
// pool when one is configured (checkpoint + seed shipped over the
// wire), on the owning agent otherwise — and on the agent again as the
// fallback when the target's seed can't ship or the pool has died. The
// round key makes every path idempotent under retries.
func (c *Coordinator) exploreTarget(tg core.ResolvedTarget, round uint64, ckpts *checkpointCache) (*ExploreResult, error) {
	if c.replicas != nil {
		out, err := c.exploreOnReplica(tg, round, ckpts)
		if err == nil {
			return out, nil
		}
		if !errors.Is(err, errExploreLocally) && !errors.Is(err, ErrReplicaPoolDown) {
			return nil, err
		}
		c.metrics.notePoolFallback()
	}
	params := ExploreParams{
		Peer:        tg.Peer,
		Scenario:    tg.Scenario,
		Explicit:    tg.Explicit,
		EngineKnobs: knobsOf(&c.driver.Opts),
		ReuseState:  c.driver.Opts.ReuseState,
		Round:       round,
	}
	var out ExploreResult
	if err := c.call(tg.Node, MethodExplore, &params, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// errExploreLocally routes a target back to its agent: the shard cannot
// ship to a replica, but the agent-side explore is exactly equivalent.
var errExploreLocally = errors.New("dist: target explores on its agent")

// exploreOnReplica ships one target to the replica pool: the node's
// checkpoint (fetched once per node per round over MethodCheckpoint and
// paged once in the round's checkpointCache), its scenario seed
// (MethodSeed), config lines, engine knobs and — under ReuseState — the
// shard's cached frontier memory. The replica's answer is the
// agent-shaped ExploreResult; the frontier memory it returns refreshes
// the warm cache.
func (c *Coordinator) exploreOnReplica(tg core.ResolvedTarget, round uint64, ckpts *checkpointCache) (*ExploreResult, error) {
	var sr SeedResult
	if err := c.call(tg.Node, MethodSeed, &SeedParams{Peer: tg.Peer, Scenario: tg.Scenario}, &sr); err != nil {
		return nil, err
	}
	if sr.Unsupported {
		return nil, errExploreLocally
	}
	if sr.Missing != "" {
		if tg.Explicit {
			// Mirror the agent's explicit-target seed failure exactly.
			return nil, fmt.Errorf("dist: %s/%s: deriving scenario seed: %s", tg.Node, tg.Peer, sr.Missing)
		}
		return &ExploreResult{Skipped: sr.Missing, Scenario: tg.Scenario}, nil
	}
	snap, err := ckpts.get(tg.Node, func() ([][]byte, error) {
		var ck CheckpointResult
		if err := c.call(tg.Node, MethodCheckpoint, nil, &ck); err != nil {
			return nil, err
		}
		return ck.Chunks, nil
	})
	if err != nil {
		return nil, err
	}
	key := core.WarmKey(tg.Node, tg.Scenario, tg.Peer)
	var warm []byte
	if c.driver.Opts.ReuseState {
		c.warmMu.Lock()
		warm = c.warm[key]
		c.warmMu.Unlock()
	}
	params := &ReplicaExploreParams{
		Node:        tg.Node,
		Config:      c.configs[tg.Node],
		Peer:        tg.Peer,
		Scenario:    tg.Scenario,
		Explicit:    tg.Explicit,
		EngineKnobs: knobsOf(&c.driver.Opts),
		Boundary:    c.driver.Boundary,
		Seed:        sr.Msg,
		WarmState:   warm,
		Round:       round,
		Shard:       key,
	}
	out, err := c.replicas.submit(params, snap)
	if err != nil {
		return nil, err
	}
	if c.driver.Opts.ReuseState && len(out.WarmState) > 0 {
		c.warmMu.Lock()
		c.warm[key] = out.WarmState
		c.warmMu.Unlock()
	}
	return &out.ExploreResult, nil
}

// checkpointCache deduplicates per-node checkpoint fetches within one
// round: targets sharing a node ship the identical snapshot, fetched and
// paged — so hashed — once, in the round's own store, exactly as the
// node's agent paged it.
type checkpointCache struct {
	store *checkpoint.Store
	mu    sync.Mutex
	m     map[string]*ckptEntry
}

type ckptEntry struct {
	once sync.Once
	snap *checkpoint.Snapshot
	err  error
}

func newCheckpointCache() *checkpointCache {
	return &checkpointCache{store: checkpoint.NewStore(0), m: make(map[string]*ckptEntry)}
}

func (cc *checkpointCache) get(node string, fetch func() ([][]byte, error)) (*checkpoint.Snapshot, error) {
	cc.mu.Lock()
	e, ok := cc.m[node]
	if !ok {
		e = &ckptEntry{}
		cc.m[node] = e
	}
	cc.mu.Unlock()
	e.once.Do(func() {
		var chunks [][]byte
		if chunks, e.err = fetch(); e.err == nil {
			e.snap = cc.store.TakeChunks(node, chunks)
		}
	})
	return e.snap, e.err
}

// Replay feeds a recorded trace (internal/trace file bytes) into every
// agent's live local fabric through the node←peer ingress session — the
// distributed form of core.FederatedExperiment.Replay. The local
// fabrics are deterministic, so all agents converge on identical
// post-replay state without any node state crossing the wire; the
// coordinator cross-checks that by comparing the per-agent delivered
// counts (a trace that installs nothing — every record filtered or
// withdrawn — is legal, exactly as in the in-process backend). Agents
// replay concurrently, same fan-out shape as the explore phase. Call
// it before Round: subsequent explorations seed from the replayed
// history.
//
// Each replay is keyed up front — a reconnect mid-replay retries
// idempotently under the same key — but committed to the history only
// after every agent applied it and the delivered counts agree. A failed
// replay (unreadable trace, divergence) must not haunt the history:
// reestablish re-runs the whole history on every reconnect, and a
// permanently failing entry would turn each recovery into a failure.
// The key itself is never reused even when a replay fails — an agent
// that applied the failed replay has the key memoized, and a different
// trace under the same key would read that stale memo.
func (c *Coordinator) Replay(node, peer string, traceBytes []byte) (int, error) {
	if _, ok := c.conns[node]; !ok {
		return 0, fmt.Errorf("dist: replay ingress node %q has no agent", node)
	}
	c.replayMu.Lock()
	c.replaySeq++
	params := ReplayParams{Node: node, Peer: peer, Trace: traceBytes, Key: c.replaySeq}
	c.replayMu.Unlock()
	outs := make([]ReplayResult, len(c.nodes))
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n string) {
			defer wg.Done()
			if err := c.call(n, MethodReplay, &params, &outs[i]); err != nil {
				errs[i] = fmt.Errorf("dist: replay on agent %s: %w", n, err)
			}
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	delivered := outs[0].Delivered
	for i, out := range outs {
		if out.Delivered != delivered {
			return 0, fmt.Errorf("dist: replay diverged: agent %s delivered %d records, agent %s %d",
				c.nodes[i], out.Delivered, c.nodes[0], delivered)
		}
	}
	c.replayMu.Lock()
	c.replayHistory = append(c.replayHistory, params)
	c.replayMu.Unlock()
	return delivered, nil
}

// shadowSet is one shadow clone per agent — the RPC core.Shadows — for
// one disjoint-prefix witness group's lifetime: the agents' shadow ids,
// the relay that schedules the group's waves, its step scratch, and the
// delivery-key sequence the steps draw from — keys are unique per shadow
// set, which is exactly the scope of the agents' memo maps.
type shadowSet struct {
	c     *Coordinator
	ids   map[string]uint64
	keys  uint64
	span  *telemetry.Span // the set's lifetime, on the coordinator track
	relay *core.Relay

	agents []string         // a step's agents, in first-delivery order
	slot   map[string]int   // agent → index into agents
	views  []core.RouteView // a step's after-views, one per delivery
}

// shadowLost marks an agent's missing-shadow answer — the signature of a
// mid-witness agent replacement (restart or degraded swap), whose fresh
// process knows none of the old clones — as core.ErrShadowLost, so the
// driver replays the witness on fresh shadows.
func shadowLost(err error) error {
	if err != nil && strings.Contains(err.Error(), noShadowMarker) {
		return fmt.Errorf("%w: %w", core.ErrShadowLost, err)
	}
	return err
}

// fanOut issues one pipelined call per node — all in flight at once; the
// agents sit on different connections, so the fan-out completes in one
// RTT — and waits for every answer. A transport fault on a pipelined
// attempt retries through the recovering call path. It returns the first
// error; results of the nodes that answered are filled in regardless.
func (c *Coordinator) fanOut(nodes []string, method string, params, result func(i int) any) error {
	pend := make([]*Pending, len(nodes))
	for i, n := range nodes {
		pend[i] = c.goNode(n, method, params(i), result(i))
	}
	var firstErr error
	for i, p := range pend {
		err := p.Wait()
		if err != nil && isConnFault(err) {
			err = c.call(nodes[i], method, params(i), result(i))
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// OpenShadows opens one shadow per node (core.Fleet). A retried open may
// leak one clone on an agent that executed the first attempt but lost
// the answer — bounded, and freed with the agent's next restart.
func (c *Coordinator) OpenShadows() (core.Shadows, error) {
	shadows := &shadowSet{
		c: c, ids: make(map[string]uint64, len(c.nodes)), span: c.tracer.Start("coordinator", "shadow set"),
		relay: c.driver.NewRelay(), slot: make(map[string]int, len(c.nodes)),
	}
	outs := make([]ShadowOpenResult, len(c.nodes))
	err := c.fanOut(c.nodes, MethodShadowOpen, func(int) any { return nil }, func(i int) any { return &outs[i] })
	for i, n := range c.nodes {
		if id := outs[i].ShadowID; id != 0 { // agents number shadows from 1
			shadows.ids[n] = id
		}
	}
	if err != nil {
		shadows.Close()
		return nil, err
	}
	return shadows, nil
}

// Close tears the set down. Best-effort: a failed close leaks one clone
// on that agent, it does not invalidate the round.
func (s *shadowSet) Close() {
	pend := make([]*Pending, 0, len(s.ids))
	for n, id := range s.ids {
		pend = append(pend, s.c.goNode(n, MethodShadowClose, &ShadowCloseParams{ShadowID: id}, nil))
	}
	for _, p := range pend {
		_ = p.Wait()
	}
	s.span.End()
}

// Query asks one node's shadow about one prefix (core.Shadows): the best
// route's shadow-scoped identity token and the covering route's
// forwarding hop. Queries are read-only, so re-issuing one after a
// transport fault is safe.
func (s *shadowSet) Query(node string, prefix netaddr.Prefix) (core.RouteView, error) {
	if _, ok := s.c.conns[node]; !ok {
		return core.RouteView{}, nil
	}
	var out QueryOracleResult
	if err := s.c.call(node, MethodQueryOracle, &QueryOracleParams{ShadowID: s.ids[node], Prefix: prefix}, &out); err != nil {
		return core.RouteView{}, shadowLost(err)
	}
	return s.c.routeView(&out)
}

// routeView renders an agent's answer in the driver's terms.
func (c *Coordinator) routeView(q *QueryOracleResult) (core.RouteView, error) {
	if len(q.PropMatch) > len(c.propSrcs) {
		return core.RouteView{}, frameErr("%d prop_match verdicts for %d properties", len(q.PropMatch), len(c.propSrcs))
	}
	v := core.RouteView{
		Hop:     core.ForwardHop{HasCovering: q.HasCovering, Local: q.CoveringLocal, NextPeer: q.CoveringNextPeer},
		AtMatch: q.PropMatch,
	}
	if q.BestToken != 0 {
		v.Token = q.BestToken
	}
	return v, nil
}

// Propagate runs the group's waves through the relay, each step one
// pipelined inject_witness per agent it addresses (core.Shadows).
func (s *shadowSet) Propagate(group []core.Injection, maxSteps int, wantAt bool) ([]core.Wave, error) {
	waves, err := s.relay.Run(group, maxSteps, func(step []core.Delivery, depth int, emit func(*core.Delivery, string, []byte)) error {
		return s.step(step, depth, emit, wantAt)
	})
	s.c.metrics.setRelayDepth(0)
	return waves, shadowLost(err)
}

// step is the RPC relay step: the step split per agent in delivery order,
// one pipelined inject_witness per agent (fanOut; a transport fault
// retries through the recovering call with the same params, so under the
// same key, and the agent's memo answers it), and the answers mapped back
// onto the deliveries in order.
func (s *shadowSet) step(step []core.Delivery, depth int, emit func(*core.Delivery, string, []byte), wantAt bool) error {
	s.c.metrics.setRelayDepth(depth)
	s.agents = s.agents[:0]
	clear(s.slot)
	var params []*InjectBatchParams
	for i := range step {
		d := &step[i]
		k, ok := s.slot[d.To]
		if !ok {
			k = len(s.agents)
			s.slot[d.To] = k
			s.agents = append(s.agents, d.To)
			s.keys++ // keys start at 1; 0 on the wire means "no memo"
			params = append(params, &InjectBatchParams{ShadowID: s.ids[d.To], Key: s.keys, WantProps: wantAt})
		}
		params[k].Deliveries = append(params[k].Deliveries, BatchDelivery{From: d.From, Msg: d.Data, Watch: d.Watch})
	}
	s.c.metrics.noteRelayStep(params)
	outs := make([]InjectBatchResult, len(s.agents))
	if err := s.c.fanOut(s.agents, MethodInjectWitness, func(i int) any { return params[i] }, func(i int) any { return &outs[i] }); err != nil {
		return err
	}
	for i, out := range outs {
		if len(out.Results) != len(params[i].Deliveries) {
			return fmt.Errorf("dist: %s answered %d results for a batch of %d", s.agents[i], len(out.Results), len(params[i].Deliveries))
		}
	}
	s.views = slices.Grow(s.views[:0], len(step))[:len(step)]
	for i := range step {
		d := &step[i]
		out := &outs[s.slot[d.To]]
		res := &out.Results[0]
		out.Results = out.Results[1:]
		if d.First && res.Before != 0 {
			d.Before = res.Before
		}
		var err error
		if s.views[i], err = s.c.routeView(&res.After); err != nil {
			return err
		}
		d.After = &s.views[i]
		for _, em := range res.Emitted {
			emit(d, em.To, em.Msg)
		}
	}
	return nil
}

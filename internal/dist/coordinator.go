package dist

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dice/internal/bgp"
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
// fault-recovery ladder, the phase-1 fan-out to the agents, shadow sets
// and their relay step — core.Relay schedules a witness group's waves,
// and a step here is one pipelined inject_witness per agent — replay,
// and telemetry.
//
// Fault tolerance (health.go, fault.go): every RPC carries the client's
// per-call deadline, a broken or timed-out connection is re-dialed with
// capped exponential backoff, and when the reconnect budget runs out the
// node transparently degrades to an in-process replacement agent — the
// mixed-fleet fallback. Retried RPCs are idempotent: every effectful call
// carries a key from the session's one sequence (keys) and a retry
// resends it, so the servers' memos give at-least-once delivery
// exactly-once effects and a faulty run converges on the identical
// finding snapshot.
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

	// session is a random nonce minted once per Connect and sent in every
	// hello. Servers scope their memos to it: keys restart at 1 per
	// session, so without the nonce a long-lived agent would answer a
	// fresh run's key 1 with a previous run's answer. Reconnects reuse the
	// nonce, so retried RPCs still hit the memos within the session.
	session uint64
	// keys is the session's one sequence: it mints the idempotency key of
	// every explore, inject_witness and replay call, and every shadow id,
	// from 1 — 0 on the wire means unkeyed. A retry resends its call's
	// key; no new call reuses one.
	keys atomic.Uint64

	// explored holds the latest Explore's raw per-target answers for Round
	// to report; rounds counts Rounds, naming their spans. Round is not
	// reentrant.
	explored []*ExploreResult
	rounds   int

	// returned is the degraded-replacement filter's memory (ReuseState
	// only; Explore alone touches it): by core.WarmKey, the finding keys
	// each target has returned (dropKnown).
	returned map[string]*returnedKeys

	replayMu      sync.Mutex
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
	// splices counts the degraded replacement agents spliced in for the
	// node; each explores its first round cold (dropKnown).
	splices int
}

// current returns the live client and its generation. A nil client
// means the node is failed; failedErr has the sticky error.
func (nc *nodeConn) current() (*Client, uint64) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.client, nc.gen
}

func (nc *nodeConn) spliced() int {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.splices
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
// accounting, per-method RPC counters/latency and node health gauges all
// record into it; nil disables telemetry.
func WithTelemetry(m *Metrics) ConnOption {
	return func(c *Coordinator) { c.metrics = m }
}

// WithTracer records round, explore and per-RPC spans into tr for
// Chrome-trace export (`dice -trace-out`). nil disables tracing.
func WithTracer(tr *telemetry.Tracer) ConnOption {
	return func(c *Coordinator) { c.tracer = tr }
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
		Topo:     topo,
		driver:   driver,
		conns:    make(map[string]*nodeConn, len(dialers)),
		nodeAS:   make(map[string]uint16, len(topo.Nodes)),
		returned: make(map[string]*returnedKeys),
	}
	for _, p := range driver.Props {
		c.propSrcs = append(c.propSrcs, p.Source())
	}
	for _, o := range copts {
		o(c)
	}
	c.policy = c.policy.withDefaults()
	c.session = newSessionNonce()
	crng := rand.New(rand.NewSource(c.policy.Seed))
	for _, d := range dialers {
		var (
			cl    *Client
			hello HelloResult
		)
		err := c.policy.redial(crng, true, func() (err error) {
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
// distinct sessions. Never 0: servers treat 0 as "no nonce sent".
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

// Close closes every agent connection.
func (c *Coordinator) Close() error {
	var first error
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
// ladder (wait).
func (c *Coordinator) call(node, method string, params, result any) error {
	if _, ok := c.conns[node]; !ok {
		return fmt.Errorf("dist: no agent for node %q", node)
	}
	return c.wait(c.start(node, method, params, result))
}

// attempt is one try of a call, on the client generation it was issued
// on (cl nil: the node has failed).
type attempt struct {
	node, method   string
	params, result any
	cl             *Client
	gen            uint64
	p              *Pending
}

// start issues an attempt on node's current client, result re-zeroed
// first so a partial decode never leaks into a retry.
func (c *Coordinator) start(node, method string, params, result any) *attempt {
	nc := c.conns[node]
	a := &attempt{node: node, method: method, params: params, result: result}
	if a.cl, a.gen = nc.current(); a.cl == nil {
		a.p = &Pending{method: method, errc: make(chan error, 1)}
		a.p.errc <- nc.failedErr()
		return a
	}
	zeroResult(result)
	a.p = a.cl.Go(method, params, result)
	return a
}

// wait finishes a call under the one attempt-and-recover discipline: a
// transport fault (broken stream, timeout) on any attempt, pipelined or
// not, is counted and recovers the client generation that attempt was
// issued on (recover), and only then is the call retried, on the
// replacement. Application errors return at once; retried methods are
// idempotent by key, so at-least-once delivery is safe.
func (c *Coordinator) wait(a *attempt) error {
	nc := c.conns[a.node]
	// One attempt per client generation the recovery ladder can hand out,
	// plus the original: reconnects, then the degraded fallback.
	for tries := 1; ; tries++ {
		err := a.p.Wait()
		if err == nil || a.cl == nil || !isConnFault(err) {
			return err
		}
		nc.noteFault(err)
		c.metrics.noteNodeFault(a.node)
		if rerr := c.recover(nc, a.gen, a.cl); rerr != nil {
			return rerr
		}
		if tries == c.policy.MaxReconnects+2 {
			return err
		}
		a = c.start(a.node, a.method, a.params, a.result)
	}
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
	lastErr := c.policy.redial(nc.rng, false, func() error {
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
	// reestablish replays the coordinator's replay history into it; its
	// first explore runs cold, and dropKnown drops what that re-reports —
	// parity with the all-healthy run holds.
	local, err := NewAgent(c.Topo, nc.node)
	if err != nil {
		nc.client = nil
		nc.gen++
		nc.health.State = HealthFailed
		nc.failErr = fmt.Errorf("dist: degraded fallback for %q: %w", nc.node, err)
		return nc.failErr
	}
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
	nc.splices++
	nc.health.State = HealthDegraded
	return nil
}

// reestablish brings a (re)connected agent up to date: the coordinator's
// replay history is re-shipped in order. The history holds only replays
// that succeeded fleet-wide (Replay commits on success), so recovery
// never re-runs a known-failing entry. Every entry is keyed, so a
// surviving agent that merely lost its connection answers from its
// memo and applies nothing twice, while a fresh replacement (restarted
// process, degraded in-process agent) replays the lot and converges
// onto the fleet's deterministic post-replay state. Exploration warm
// state (ReuseState) is the one thing a replacement cannot recover — its
// next explore runs cold and re-reports known findings, which dropKnown
// drops for a degraded replacement; the explore keys keep retries of the
// *current* round exact either way.
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
	c.rounds++
	roundSpan := c.tracer.Start("coordinator", fmt.Sprintf("round %d", c.rounds))
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
// the owning agents, one goroutine per target (calls to the same agent
// serialize on its connection), then reassemble each answer's findings
// and concrete witnesses. Every target's call carries its own key, which
// makes retried explores exact: an agent that already ran it answers
// from its memo.
func (c *Coordinator) Explore(targets []core.ResolvedTarget) ([]core.TargetOutcome, error) {
	raw := make([]*ExploreResult, len(targets))
	errs := make([]error, len(targets))
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
			defer sp.End()
			params := ExploreParams{
				Peer:        tg.Peer,
				Scenario:    tg.Scenario,
				Explicit:    tg.Explicit,
				EngineKnobs: knobsOf(&c.driver.Opts),
				ReuseState:  c.driver.Opts.ReuseState,
				Key:         c.keys.Add(1),
			}
			raw[i] = new(ExploreResult)
			errs[i] = c.call(tg.Node, MethodExplore, &params, raw[i])
		}()
	}
	wg.Wait()
	outs := make([]core.TargetOutcome, len(targets))
	for i, tg := range targets {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if c.driver.Opts.ReuseState {
			c.dropKnown(tg, raw[i])
		}
		var err error
		if outs[i], err = decodeOutcome(tg, raw[i]); err != nil {
			return nil, err
		}
	}
	c.explored = raw
	return outs, nil
}

// returnedKeys is one target's memory in the degraded-replacement filter:
// the finding keys it has returned, and its node's splice count when it
// last explored.
type returnedKeys struct {
	keys    map[core.FindingKey]bool
	splices int
}

// dropKnown is the degraded-replacement filter, run on every ReuseState
// answer. It records the finding keys tg returned. A degraded
// replacement agent explores its first round cold and re-reports every
// finding its dead predecessor already returned, where a warm agent
// would report none of them; so on tg's first answer after its node was
// spliced to a replacement, dropKnown first drops the findings whose keys
// tg already returned, with their witnesses, re-indexing the rest. A
// node never spliced passes through untouched.
func (c *Coordinator) dropKnown(tg core.ResolvedTarget, out *ExploreResult) {
	splices := c.conns[tg.Node].spliced()
	key := core.WarmKey(tg.Node, tg.Scenario, tg.Peer)
	mem := c.returned[key]
	if mem == nil {
		mem = &returnedKeys{keys: make(map[core.FindingKey]bool), splices: splices}
		c.returned[key] = mem
	}
	if mem.splices != splices {
		mem.splices = splices
		idx := make([]int, len(out.Findings)) // old index → kept index, -1 dropped
		kept := out.Findings[:0]
		for i, f := range out.Findings {
			idx[i] = -1
			if !mem.keys[f.Key()] {
				idx[i] = len(kept)
				kept = append(kept, f)
			}
		}
		out.Findings = kept
		ws := out.Witnesses[:0]
		for _, w := range out.Witnesses {
			if w.Finding >= 0 && w.Finding < len(idx) {
				if idx[w.Finding] < 0 {
					continue
				}
				w.Finding = idx[w.Finding] // out-of-range refs stay for decodeOutcome to refuse
			}
			ws = append(ws, w)
		}
		out.Witnesses = ws
	}
	for _, f := range out.Findings {
		mem.keys[f.Key()] = true
	}
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
// Like every key, a failed replay's is never reused: an agent that
// applied it remembers the answer.
func (c *Coordinator) Replay(node, peer string, traceBytes []byte) (int, error) {
	if _, ok := c.conns[node]; !ok {
		return 0, fmt.Errorf("dist: replay ingress node %q has no agent", node)
	}
	params := ReplayParams{Node: node, Peer: peer, Trace: traceBytes, Key: c.keys.Add(1)}
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

// shadowSet is one shadow clone per agent it calls — the RPC
// core.Shadows — for one disjoint-prefix witness group's lifetime: the
// set's shadow id (the same on every agent), the agents it has called,
// the relay that schedules the group's waves, and its step scratch. The
// set's first call to an agent carries Open, which opens the id there.
type shadowSet struct {
	c      *Coordinator
	id     uint64
	span   *telemetry.Span // the set's lifetime, on the coordinator track
	relay  *core.Relay
	depth  int             // what this set adds to the relay-depth gauge
	called map[string]bool // agents the set has called: Close's fan-out

	agents []string       // a step's agents, in first-delivery order
	slot   map[string]int // agent → index into agents
}

// first records a call to node: true for the set's first, marked Open.
func (s *shadowSet) first(node string) bool {
	first := !s.called[node]
	s.called[node] = true
	return first
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

// fanOut issues one pipelined inject_witness per node — all in flight at
// once; the agents sit on different connections, so the fan-out completes
// in one RTT — and waits for every answer, each through the recovering
// wait. It returns the first error; the answers of the nodes that
// answered are filled in regardless.
func (c *Coordinator) fanOut(nodes []string, params []*InjectBatchParams, outs []InjectBatchResult) error {
	calls := make([]*attempt, len(nodes))
	for i, n := range nodes {
		calls[i] = c.start(n, MethodInjectWitness, params[i], &outs[i])
	}
	var firstErr error
	for _, a := range calls {
		if err := c.wait(a); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// OpenShadows starts a shadow set under one fresh id (core.Fleet). It
// calls no agent: each opens the id on the set's first call to it.
func (c *Coordinator) OpenShadows() core.Shadows {
	return &shadowSet{
		c: c, id: c.keys.Add(1), span: c.tracer.Start("coordinator", "shadow set"),
		relay: c.driver.AcquireRelay(), called: make(map[string]bool, len(c.nodes)), slot: make(map[string]int, len(c.nodes)),
	}
}

// Close tears the set down on every agent it called (an id an agent
// never opened closes as a no-op). Best-effort, one attempt each and no
// recovery: a failed close leaks one clone on that agent until its next
// session, not the round.
func (s *shadowSet) Close() {
	calls := make([]*attempt, 0, len(s.called))
	params := &ShadowCloseParams{ShadowID: s.id}
	for _, n := range s.c.nodes {
		if s.called[n] {
			calls = append(calls, s.c.start(n, MethodShadowClose, params, nil))
		}
	}
	for _, a := range calls {
		_ = a.p.Wait()
	}
	if s.relay != nil {
		s.c.driver.ReleaseRelay(s.relay)
		s.relay = nil
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
	if err := s.c.call(node, MethodQueryOracle, &QueryOracleParams{ShadowID: s.id, Open: s.first(node), Prefix: prefix}, &out); err != nil {
		return core.RouteView{}, shadowLost(err)
	}
	return s.c.routeView(&out)
}

// routeView renders an agent's answer in the driver's terms.
func (c *Coordinator) routeView(q *QueryOracleResult) (core.RouteView, error) {
	if len(q.PropMatch) > len(c.propSrcs) {
		return core.RouteView{}, frameErr("%d prop_match verdicts for %d properties", len(q.PropMatch), len(c.propSrcs))
	}
	return core.RouteView{
		Token:   q.BestToken,
		Hop:     core.ForwardHop{HasCovering: q.HasCovering, Local: q.CoveringLocal, NextPeer: q.CoveringNextPeer},
		AtMatch: q.PropMatch,
	}, nil
}

// Propagate runs the group's waves through the relay, each step one
// pipelined inject_witness per agent it addresses (core.Shadows).
func (s *shadowSet) Propagate(group []core.Injection, maxSteps int, wantAt bool) ([]core.Wave, error) {
	waves, err := s.relay.Run(group, maxSteps, func(step []core.Delivery, depth int, emit func(*core.Delivery, string, []byte)) error {
		return s.step(step, depth, emit, wantAt)
	})
	s.setDepth(0)
	return waves, shadowLost(err)
}

// setDepth moves this set's share of the relay-depth gauge to depth.
// Sets add their own shares, so with several in flight the gauge reads
// their sum, and a set whose waves end takes back exactly what it added.
func (s *shadowSet) setDepth(depth int) {
	s.c.metrics.addRelayDepth(depth - s.depth)
	s.depth = depth
}

// step is the RPC relay step: the step split per agent in delivery order,
// one pipelined inject_witness per agent under a fresh key (fanOut; a
// retry after a transport fault resends the same params, so the same
// key, and the agent's memo answers it), and the answers mapped back
// onto the deliveries in order.
func (s *shadowSet) step(step []core.Delivery, depth int, emit func(*core.Delivery, string, []byte), wantAt bool) error {
	s.setDepth(depth)
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
			params = append(params, &InjectBatchParams{ShadowID: s.id, Open: s.first(d.To), Key: s.c.keys.Add(1), WantProps: wantAt})
		}
		params[k].Deliveries = append(params[k].Deliveries, BatchDelivery{From: d.From, Msg: d.Data, Watch: d.Watch})
	}
	s.c.metrics.noteRelayStep(params)
	outs := make([]InjectBatchResult, len(s.agents))
	if err := s.c.fanOut(s.agents, params, outs); err != nil {
		return err
	}
	for i, out := range outs {
		if len(out.Results) != len(params[i].Deliveries) {
			return fmt.Errorf("dist: %s answered %d results for a batch of %d", s.agents[i], len(out.Results), len(params[i].Deliveries))
		}
	}
	for i := range step {
		d := &step[i]
		out := &outs[s.slot[d.To]]
		res := &out.Results[0]
		out.Results = out.Results[1:]
		var err error
		if d.After, err = s.c.routeView(&res.After); err != nil {
			return err
		}
		d.Before = res.Before
		for _, em := range res.Emitted {
			emit(d, em.To, em.Msg)
		}
	}
	return nil
}

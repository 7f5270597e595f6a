package dist

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"dice/internal/bgp"
	"dice/internal/checkpoint"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/prop"
	"dice/internal/rib"
	"dice/internal/router"
	"dice/internal/telemetry"
	"dice/internal/trace"
)

// Agent administers one node of a federated topology and serves the
// wire protocol for it. It instantiates the topology locally — netsim
// convergence is deterministic, so every agent of the same topology file
// arrives at an identical converged fabric — but exposes only its own
// node over the wire: exploration runs on its node's checkpoint clones,
// witness messages are delivered to its node's shadow clones, and oracle
// queries answer facts about its node alone. The other nodes' state
// never crosses the RPC boundary; the coordinator composes the
// cross-node picture purely from the narrow per-node answers. The
// embedded rpcServer decodes each request through wire.go's method
// table, so handle dispatches on typed params and no layout is known
// here.
type Agent struct {
	rpcServer

	topo     *core.Topology
	node     string
	fabric   *core.Fabric
	self     *router.Router
	boundary uint32
	// sharedFabric marks an agent built by NewSharedAgents: its fabric is
	// shared with the topology's other agents, so fabric-mutating methods
	// (replay) are refused.
	sharedFabric bool

	states *concolic.StateMap // per-(scenario, peer) warm exploration state
	store  *checkpoint.Store  // page-deduplicating snapshot store

	// Telemetry (nil unless EnableTelemetry ran): handler-level counters
	// and the per-round concolic metrics threaded into every explore.
	am        *agentMetrics
	concolicM *concolic.Metrics

	// reqMu serializes request handling across connections: routers and
	// shadow clones are not thread-safe, and one request at a time is
	// all the coordinator ever issues per agent anyway (its parallelism
	// is across agents, not within one).
	reqMu sync.Mutex

	// Idempotency memos (guarded by reqMu, like all handler state). The
	// coordinator keys explores on its round sequence and replays on a
	// delivery key, so a retry after a reconnect returns the memoized
	// answer instead of re-executing — at-least-once delivery with
	// exactly-once effects. exploreMemo keeps only the latest round per
	// (peer, scenario); replayMemo keeps every applied key (one entry
	// per distinct replayed trace, so it stays small).
	//
	// Round and replay keys are coordinator-local sequences, so the memos
	// are only valid within one coordinator session: agents are long-lived
	// servers, and a second dice run would otherwise collide with the
	// first run's keys and read its stale answers. The coordinator mints a
	// session nonce and sends it in the hello; when the nonce changes the
	// memos are dropped (see hello). Reconnects of the same coordinator
	// carry the same nonce and still hit the memos.
	session     uint64
	exploreMemo map[string]exploreMemoEntry
	replayMemo  map[uint64]*ReplayResult

	// props is the property set the coordinator shipped in its hello
	// (compiled from HelloParams.Properties, list order preserved).
	// inject answers WantProps requests against it by index.
	props []*prop.Compiled

	mu       sync.Mutex
	shadows  map[uint64]*shadowClone
	nextID   uint64
	lastSnap *checkpoint.Snapshot
}

// exploreMemoEntry is one memoized explore answer, valid for one round.
type exploreMemoEntry struct {
	round uint64
	out   *ExploreResult
}

// noShadowMarker is the stable substring of the agent's missing-shadow
// error. The coordinator matches it (shadowLost) to tell "this shadow
// died with a replaced agent — replay the witness on fresh clones" from
// genuine application errors.
const noShadowMarker = "has no shadow"

// shadowClone is one witness-propagation clone of the agent's node: a
// COW copy whose outbound traffic lands in a capture sink the agent
// drains back to the coordinator per delivery. routeIDs tokenizes the
// *rib.Route pointers its answers name, so the coordinator's
// before/after comparisons carry the in-process backend's exact
// pointer-identity semantics across the wire (a byte-identical
// reinstall still changes the token, exactly as it changes the
// pointer).
type shadowClone struct {
	r       *router.Router
	sink    *netsim.CaptureSink
	emitted []netsim.CapturedMessage // inject's drain buffer

	routeIDs  map[*rib.Route]uint64
	nextRoute uint64

	// applied memoizes delivery results by idempotency key, so a
	// delivery retried after a reconnect answers from memory instead of
	// feeding the clone twice. Freed with the shadow at shadowClose.
	applied map[uint64]*InjectBatchResult
}

// routeToken returns the shadow-scoped stable token for a route object
// (0 for none).
func (sh *shadowClone) routeToken(rt *rib.Route) uint64 {
	if rt == nil {
		return 0
	}
	id, ok := sh.routeIDs[rt]
	if !ok {
		sh.nextRoute++
		id = sh.nextRoute
		sh.routeIDs[rt] = id
	}
	return id
}

// NewAgent builds the agent's local fabric and takes ownership of node.
func NewAgent(topo *core.Topology, node string) (*Agent, error) {
	boundary, err := topo.BoundaryCommunity()
	if err != nil {
		return nil, err
	}
	fabric, err := topo.Build()
	if err != nil {
		return nil, err
	}
	return newAgent(topo, node, fabric, boundary, false)
}

// NewSharedAgents builds one agent per topology node over a single
// shared fabric. A topology is instantiated and converged once — at
// thousands of nodes a per-agent fabric would multiply a
// gigabyte-scale build by the node count — and every agent serves its
// own node of it. All RPC methods except replay operate on clones or
// read-only views, so agents over a shared fabric stay independent;
// replay (which mutates the live fabric, and fanned out to N agents
// would apply one trace N times) is refused.
func NewSharedAgents(topo *core.Topology) (map[string]*Agent, error) {
	boundary, err := topo.BoundaryCommunity()
	if err != nil {
		return nil, err
	}
	fabric, err := topo.Build()
	if err != nil {
		return nil, err
	}
	agents := make(map[string]*Agent, len(topo.Nodes))
	for _, n := range topo.Nodes {
		a, err := newAgent(topo, n.Name, fabric, boundary, true)
		if err != nil {
			return nil, err
		}
		agents[n.Name] = a
	}
	return agents, nil
}

func newAgent(topo *core.Topology, node string, fabric *core.Fabric, boundary uint32, shared bool) (*Agent, error) {
	self, ok := fabric.Routers[node]
	if !ok {
		return nil, fmt.Errorf("dist: topology %q has no node %q (nodes: %v)", topo.Name, node, fabric.NodeNames())
	}
	a := &Agent{
		topo:         topo,
		node:         node,
		fabric:       fabric,
		self:         self,
		boundary:     boundary,
		sharedFabric: shared,
		states:       concolic.NewStateMap(),
		store:        checkpoint.NewStore(0),
		shadows:      make(map[uint64]*shadowClone),
		exploreMemo:  make(map[string]exploreMemoEntry),
		replayMemo:   make(map[uint64]*ReplayResult),
	}
	a.rpcServer = rpcServer{handler: a, name: node, role: "agent"}
	return a, nil
}

// Node returns the node this agent administers.
func (a *Agent) Node() string { return a.node }

// EnableTelemetry registers this agent's metric families on reg and
// starts recording: RPC server counters, checkpoint pages, memo hits,
// open shadows, and the concolic engine's per-round exploration metrics.
// Call it before serving; a nil registry leaves telemetry off.
func (a *Agent) EnableTelemetry(reg *telemetry.Registry) {
	a.rpcServer.tm = newServerMetrics(reg)
	a.am = newAgentMetrics(reg)
	a.concolicM = concolic.NewMetrics(reg)
}

// SeedExploreState attaches serialized cross-round exploration memory
// (concolic ExploreState wire encoding) to the agent's warm-state slot
// for one (scenario, peer) target — the coordinator's warm handoff: a
// replacement agent establishing cold inherits the frontier its dead
// predecessor had shipped, so its first warm round skips every path the
// fleet already explored instead of rediscovering them.
func (a *Agent) SeedExploreState(scenario, peer string, data []byte) error {
	st, err := concolic.DecodeExploreState(data)
	if err != nil {
		return fmt.Errorf("dist: %s warm state for %s/%s: %w", a.node, scenario, peer, err)
	}
	a.reqMu.Lock()
	defer a.reqMu.Unlock()
	a.states.Attach(core.WarmKey(a.node, scenario, peer), st)
	return nil
}

// handle dispatches one decoded request, one at a time per agent.
// Requests from concurrent connections serialize on reqMu — the node's
// routers and shadow clones are single-threaded state.
func (a *Agent) handle(method string, params message) (message, error) {
	a.reqMu.Lock()
	defer a.reqMu.Unlock()
	switch p := params.(type) {
	case *HelloParams:
		return a.hello(p)
	case *ExploreParams:
		return a.explore(p)
	case *InjectBatchParams:
		return a.inject(p)
	case *ShadowCloseParams:
		a.shadowClose(p.ShadowID)
		return nil, nil
	case *QueryOracleParams:
		return a.queryOracle(p)
	case *ReplayParams:
		return a.replay(p)
	case *SeedParams:
		return a.seed(p)
	case nil:
		switch method {
		case MethodCheckpoint:
			return a.checkpoint()
		case MethodShadowOpen:
			return a.shadowOpen(), nil
		}
	}
	return nil, fmt.Errorf("dist: agent does not serve %q", method)
}

// hello identifies the node (decodeParams has already checked the
// client's protocol version) and scopes the idempotency memos: a new
// coordinator session nonce invalidates the previous session's
// explore/replay memos, whose keys are coordinator-local sequences that
// restart at 1 per session. A zero nonce leaves the memos alone.
// Shadows are untouched — their delivery memos live and die with the
// shadow itself.
//
// A hello carrying Properties replaces the agent's compiled property
// set; a malformed property fails the handshake, so the coordinator
// learns about it before any round runs instead of mid-witness.
func (a *Agent) hello(p *HelloParams) (*HelloResult, error) {
	if p.Session != 0 && p.Session != a.session {
		a.session = p.Session
		clear(a.exploreMemo)
		clear(a.replayMemo)
	}
	if len(p.Properties) > 0 {
		props, err := prop.CompileSources(p.Properties)
		if err != nil {
			return nil, fmt.Errorf("dist: %s: hello %w", a.node, err)
		}
		a.props = props
	}
	return &HelloResult{
		Node:     a.node,
		Topology: a.topo.Name,
		AS:       a.self.Config().LocalAS,
		Prefixes: a.self.RIB().Prefixes(),
		Version:  ProtoVersion,
	}, nil
}

// checkpoint serializes the node's state as its stable regions, pages
// them into the agent's store for the §4.1 accounting and returns the
// regions; the receiver pages them the same way (CheckpointResult.Chunks).
// Successive checkpoints share unchanged pages; only the latest snapshot
// is retained.
func (a *Agent) checkpoint() (*CheckpointResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	before := a.store.Stats()
	chunks := a.self.EncodeStateChunks()
	snap := a.store.TakeChunks(a.node, chunks)
	after := a.store.Stats()
	if a.lastSnap != nil {
		a.lastSnap.Release()
	}
	a.lastSnap = snap
	unique := int(after.Ingested-before.Ingested) - int(after.SharedHits-before.SharedHits)
	a.am.noteCheckpoint(snap.Pages(), unique)
	return &CheckpointResult{Chunks: chunks, Pages: snap.Pages(), UniquePages: unique}, nil
}

// explore runs one concolic exploration round on the agent's node
// through the same per-target pipeline the in-process federated
// backend uses (core.PrepareTarget / Analyze / WitnessRefs — the
// parity contract lives there), exploring the engine solo instead of
// as a fleet member.
func (a *Agent) explore(p *ExploreParams) (*ExploreResult, error) {
	// Round-keyed idempotency: a coordinator retrying after a reconnect
	// re-sends the same round number, and must get the same answer the
	// lost response carried — re-running under ReuseState would skip the
	// already-reported paths and answer differently.
	memoKey := p.Peer + "|" + p.Scenario
	if p.Round != 0 {
		if e, ok := a.exploreMemo[memoKey]; ok && e.round == p.Round {
			a.am.noteMemoHit("explore")
			return e.out, nil
		}
	}
	engOpts := p.EngineKnobs.options(a.concolicM)
	tg := core.ResolvedTarget{Node: a.node, Peer: p.Peer, Scenario: p.Scenario, Explicit: p.Explicit, Boundary: a.boundary}
	tp, err := core.PrepareTarget(a.self, tg, engOpts, a.states, p.ReuseState)
	if err != nil {
		var seedErr *core.SeedUnavailableError
		if errors.As(err, &seedErr) && !p.Explicit {
			skipped := &ExploreResult{Skipped: seedErr.Err.Error(), Scenario: p.Scenario}
			if p.Round != 0 {
				a.exploreMemo[memoKey] = exploreMemoEntry{round: p.Round, out: skipped}
			}
			return skipped, nil
		}
		return nil, fmt.Errorf("dist: %s/%s: %w", a.node, p.Peer, err)
	}
	rep := tp.Engine.Explore()
	out, err := encodeExploreResult(tp, tp.Analyze(a.self, engOpts, a.boundary, rep))
	if err != nil {
		return nil, err
	}
	if p.Round != 0 {
		a.exploreMemo[memoKey] = exploreMemoEntry{round: p.Round, out: out}
	}
	return out, nil
}

// encodeExploreResult renders one explored target for the wire: the
// report's counters, the findings as core reports them, and the validated
// findings' concrete witness announcements. Agents and replicas answer
// through here, so a shard reads the same wherever it ran.
func encodeExploreResult(tp *core.TargetPrep, r *core.Result) (*ExploreResult, error) {
	rep := r.Report
	out := &ExploreResult{
		Scenario:          r.Scenario,
		Runs:              rep.Runs,
		NewPaths:          len(rep.Paths),
		BranchesSeen:      rep.BranchesSeen,
		SolverCalls:       rep.SolverCalls,
		SolverSat:         rep.SolverSat,
		SolverUnsat:       rep.SolverUnsat,
		SkippedPaths:      rep.SkippedPaths,
		SkippedNegations:  rep.SkippedNegations,
		ElapsedNS:         rep.Elapsed.Nanoseconds(),
		CapturedMessages:  r.CapturedMessages,
		WitnessesRejected: r.WitnessesRejected,
		Findings:          r.Findings,
	}
	for _, wr := range tp.WitnessRefs(r) {
		wire, err := bgp.Encode(wr.Update)
		if err != nil {
			return nil, fmt.Errorf("dist: %s/%s: encode witness for %s: %w", tp.Target.Node, tp.Target.Peer, wr.Update.NLRI[0], err)
		}
		out.Witnesses = append(out.Witnesses, WireWitness{Finding: wr.Finding, Msg: wire})
	}
	return out, nil
}

// seed derives the target's scenario seed in replica-shippable form — a
// concrete BGP UPDATE — or reports why none ships: Missing (nothing
// observed yet, the defaulted-target skip condition) or Unsupported (the
// scenario's seed is not an UPDATE, so the target explores on the node).
func (a *Agent) seed(p *SeedParams) (*SeedResult, error) {
	tg := core.ResolvedTarget{Node: a.node, Peer: p.Peer, Scenario: p.Scenario}
	u, err := core.ShippableSeed(a.self, tg)
	if err != nil {
		var seedErr *core.SeedUnavailableError
		if errors.As(err, &seedErr) {
			return &SeedResult{Missing: seedErr.Err.Error()}, nil
		}
		if errors.Is(err, core.ErrSeedNotShippable) {
			return &SeedResult{Unsupported: true}, nil
		}
		return nil, err
	}
	wire, err := bgp.Encode(u)
	if err != nil {
		return nil, fmt.Errorf("dist: %s encode seed for %s: %w", a.node, p.Peer, err)
	}
	return &SeedResult{Msg: wire}, nil
}

// replay feeds a recorded trace into the agent's live local fabric. The
// fabric is deterministic, so every agent replaying the same trace —
// the coordinator fans it to all of them — converges on the same state,
// and subsequent explorations seed from the replayed history exactly as
// the in-process backend's do.
func (a *Agent) replay(p *ReplayParams) (*ReplayResult, error) {
	if a.sharedFabric {
		return nil, fmt.Errorf("dist: %s shares its fabric; replay would apply the trace once per agent", a.node)
	}
	// Key-based idempotency: the coordinator re-ships its whole replay
	// history when (re-)establishing an agent. A surviving agent has
	// every key memoized and applies nothing twice; a fresh replacement
	// applies the lot and converges onto the fleet's state.
	if p.Key != 0 {
		if out, ok := a.replayMemo[p.Key]; ok {
			a.am.noteMemoHit("replay")
			return out, nil
		}
	}
	records, err := trace.Read(bytes.NewReader(p.Trace))
	if err != nil {
		return nil, err
	}
	n, err := a.fabric.ReplayTrace(p.Node, p.Peer, records)
	if err != nil {
		return nil, fmt.Errorf("dist: %s replay: %w", a.node, err)
	}
	out := &ReplayResult{Delivered: n, Prefixes: a.self.RIB().Prefixes()}
	if p.Key != 0 {
		a.replayMemo[p.Key] = out
	}
	return out, nil
}

// shadowOpen clones the node for witness propagation. The clone is COW
// (O(peers) creation) and its traffic lands in a private capture sink.
func (a *Agent) shadowOpen() *ShadowOpenResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextID++
	sink := netsim.NewCaptureSink()
	a.shadows[a.nextID] = &shadowClone{
		r:        a.self.CloneCOW(sink),
		sink:     sink,
		routeIDs: make(map[*rib.Route]uint64),
		applied:  make(map[uint64]*InjectBatchResult),
	}
	a.am.noteShadowOpened()
	return &ShadowOpenResult{ShadowID: a.nextID}
}

func (a *Agent) shadow(id uint64) (*shadowClone, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sh, ok := a.shadows[id]
	if !ok {
		return nil, fmt.Errorf("dist: %s %s %d", a.node, noShadowMarker, id)
	}
	return sh, nil
}

func (a *Agent) shadowClose(id uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.shadows[id]; ok {
		delete(a.shadows, id)
		// Gauge decrement only for shadows that existed: a re-sent close
		// (retry after a lost answer) must not drive the count negative.
		a.am.noteShadowClosed()
	}
}

// inject delivers an ordered run of BGP messages into a shadow clone,
// each as if sent by its named peer, and returns per delivery the
// messages the node emitted in response — core.Relay queues them onward
// for the coordinator's next relay steps — and the node's route for the
// delivery's watched prefix before and after it.
// The run is all or nothing: every sender is validated before the first
// delivery, so an error never leaves a half-applied shadow behind it.
// The whole run is the idempotency unit, memoized under its key.
func (a *Agent) inject(p *InjectBatchParams) (*InjectBatchResult, error) {
	sh, err := a.shadow(p.ShadowID)
	if err != nil {
		return nil, err
	}
	if p.Key != 0 {
		if out, ok := sh.applied[p.Key]; ok {
			a.am.noteMemoHit("inject")
			return out, nil
		}
	}
	for _, d := range p.Deliveries {
		if a.self.Session(d.From) == nil {
			return nil, fmt.Errorf("dist: %w", core.NoPeerError(a.node, d.From))
		}
	}
	var props []*prop.Compiled
	if p.WantProps {
		// Per-property `at` verdicts over the installed best route, by
		// hello list index.
		props = a.props
	}
	out := &InjectBatchResult{Results: make([]InjectResult, len(p.Deliveries))}
	for i, d := range p.Deliveries {
		res := &out.Results[i]
		res.Before = sh.routeToken(sh.r.RIB().Best(d.Watch))
		sh.r.Deliver(a.fabric.Net.Now(), d.From, d.Msg)
		if sh.emitted = sh.sink.Drain(sh.emitted[:0]); len(sh.emitted) > 0 {
			res.Emitted = make([]WireEmission, len(sh.emitted))
			for k, m := range sh.emitted {
				res.Emitted[k] = WireEmission{To: m.To, Msg: m.Data}
			}
		}
		res.After = sh.view(d.Watch, props, a.boundary)
	}
	if p.Key != 0 {
		sh.applied[p.Key] = out
	}
	return out, nil
}

// view answers the narrow cross-domain route questions about one prefix
// in this shadow, from the one core.QueryRoute: exact-best presence as a
// shadow-scoped route token (pointer identity over the wire — see
// shadowClone), the covering route's forwarding facts, `at` verdicts.
func (sh *shadowClone) view(p netaddr.Prefix, props []*prop.Compiled, boundary uint32) QueryOracleResult {
	best, hop, atMatch := core.QueryRoute(sh.r, p, props, boundary)
	return QueryOracleResult{
		BestToken:   sh.routeToken(best),
		HasCovering: hop.HasCovering, CoveringLocal: hop.Local, CoveringNextPeer: hop.NextPeer,
		PropMatch: atMatch,
	}
}

// queryOracle answers a forward trace's lookup of a node no wave touched.
func (a *Agent) queryOracle(p *QueryOracleParams) (*QueryOracleResult, error) {
	sh, err := a.shadow(p.ShadowID)
	if err != nil {
		return nil, err
	}
	out := sh.view(p.Prefix, nil, a.boundary)
	return &out, nil
}

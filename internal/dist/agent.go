package dist

import (
	"bytes"
	"errors"
	"fmt"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/prop"
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
// table, runs one request at a time and answers retries from its memo,
// so handle dispatches on typed params and neither a layout nor a lock
// nor a memo is known here.
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

	// Telemetry (nil unless EnableTelemetry ran): handler-level counters
	// and the per-round concolic metrics threaded into every explore.
	am        *agentMetrics
	concolicM *concolic.Metrics

	// props is the property set the coordinator shipped in its hello
	// (compiled from HelloParams.Properties, list order preserved).
	// inject answers WantProps requests against it by index.
	props []*prop.Compiled

	// shadows are the open witness-propagation clones, by the ids the
	// coordinator minted.
	shadows map[uint64]*core.NodeShadow
}

// noShadowMarker is the stable substring of the agent's missing-shadow
// error. The coordinator matches it (shadowLost) to tell "this shadow
// died with a replaced agent — replay the witness on fresh clones" from
// genuine application errors.
const noShadowMarker = "has no shadow"

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
		shadows:      make(map[uint64]*core.NodeShadow),
	}
	a.rpcServer = rpcServer{handler: a, name: node}
	return a, nil
}

// Node returns the node this agent administers.
func (a *Agent) Node() string { return a.node }

// EnableTelemetry registers this agent's metric families on reg and
// starts recording: RPC server counters, memo hits, open shadows, and
// the concolic engine's per-round exploration metrics.
// Call it before serving; a nil registry leaves telemetry off.
func (a *Agent) EnableTelemetry(reg *telemetry.Registry) {
	a.rpcServer.tm = newServerMetrics(reg)
	a.am = newAgentMetrics(reg)
	a.concolicM = concolic.NewMetrics(reg)
}

// handle dispatches one decoded request; the server runs one at a time.
func (a *Agent) handle(method string, params message) (message, error) {
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
	}
	return nil, fmt.Errorf("dist: agent does not serve %q", method)
}

// hello identifies the node (decodeParams has already checked the
// client's protocol version; the server has scoped its memo to the
// session). A hello carrying Properties replaces the agent's compiled
// property set; a malformed property fails the handshake, so the
// coordinator learns about it before any round runs instead of
// mid-witness.
func (a *Agent) hello(p *HelloParams) (*HelloResult, error) {
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

// newSession closes the previous session's shadows: their ids came from
// that session's sequence, and the new one will mint the same ids again.
func (a *Agent) newSession() {
	for id := range a.shadows {
		a.shadowClose(id)
	}
}

// memoHit counts a memo answer under the kind label its method has on
// dice_agent_memo_hits_total.
func (a *Agent) memoHit(method string) {
	kind := method
	if method == MethodInjectWitness {
		kind = "inject"
	}
	a.am.noteMemoHit(kind)
}

// explore runs one concolic exploration round on the agent's node
// through the same per-target pipeline the in-process federated
// backend uses (core.PrepareTarget / Analyze / WitnessRefs — the
// parity contract lives there), exploring the engine solo instead of
// as a fleet member.
func (a *Agent) explore(p *ExploreParams) (*ExploreResult, error) {
	engOpts := p.EngineKnobs.options(a.concolicM)
	tg := core.ResolvedTarget{Node: a.node, Peer: p.Peer, Scenario: p.Scenario, Explicit: p.Explicit, Boundary: a.boundary}
	tp, err := core.PrepareTarget(a.self, tg, engOpts, a.states, p.ReuseState)
	if err != nil {
		var seedErr *core.SeedUnavailableError
		if errors.As(err, &seedErr) && !p.Explicit {
			return &ExploreResult{Skipped: seedErr.Err.Error(), Scenario: p.Scenario}, nil
		}
		return nil, fmt.Errorf("dist: %s/%s: %w", a.node, p.Peer, err)
	}
	r := tp.Analyze(a.self, engOpts, a.boundary, tp.Engine.Explore())
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
	// The validated findings' concrete witness announcements.
	for _, wr := range tp.WitnessRefs(r) {
		wire, err := bgp.Encode(wr.Update)
		if err != nil {
			return nil, fmt.Errorf("dist: %s/%s: encode witness for %s: %w", a.node, p.Peer, wr.Update.NLRI[0], err)
		}
		out.Witnesses = append(out.Witnesses, WireWitness{Finding: wr.Finding, Msg: wire})
	}
	return out, nil
}

// replay feeds a recorded trace into the agent's live local fabric. The
// fabric is deterministic, so every agent replaying the same trace —
// the coordinator fans it to all of them — converges on the same state,
// and subsequent explorations seed from the replayed history exactly as
// the in-process backend's do. The coordinator re-ships its whole replay
// history when (re-)establishing an agent: a surviving agent's server
// answers every key from its memo, a fresh replacement applies the lot
// and converges onto the fleet's state.
func (a *Agent) replay(p *ReplayParams) (*ReplayResult, error) {
	if a.sharedFabric {
		return nil, fmt.Errorf("dist: %s shares its fabric; replay would apply the trace once per agent", a.node)
	}
	records, err := trace.Read(bytes.NewReader(p.Trace))
	if err != nil {
		return nil, err
	}
	n, err := a.fabric.ReplayTrace(p.Node, p.Peer, records)
	if err != nil {
		return nil, fmt.Errorf("dist: %s replay: %w", a.node, err)
	}
	return &ReplayResult{Delivered: n, Prefixes: a.self.RIB().Prefixes()}, nil
}

// shadow finds the clone under the coordinator's id, opening it for the
// set's first call here (open) through the one core.OpenShadow. Another
// call on an unknown id means this process replaced the one that opened
// it (noShadowMarker).
func (a *Agent) shadow(id uint64, open bool) (*core.NodeShadow, error) {
	if sh, ok := a.shadows[id]; ok {
		return sh, nil
	}
	if !open {
		return nil, fmt.Errorf("dist: %s %s %d", a.node, noShadowMarker, id)
	}
	sh := core.OpenShadow(a.self, a.fabric.Net.Now())
	a.shadows[id] = sh
	a.am.noteShadowOpened()
	return sh, nil
}

func (a *Agent) shadowClose(id uint64) {
	if _, ok := a.shadows[id]; ok {
		delete(a.shadows, id)
		// Gauge decrement only for shadows that existed: a re-sent close
		// (retry after a lost answer) must not drive the count negative.
		a.am.noteShadowClosed()
	}
}

// inject delivers an ordered run of BGP messages into a shadow clone,
// each as if sent by its named peer, and answers per delivery what
// core.NodeShadow.Deliver reports. The run is all or nothing: every
// sender is checked before the first delivery, so an error never leaves
// a half-applied shadow behind it.
func (a *Agent) inject(p *InjectBatchParams) (*InjectBatchResult, error) {
	sh, err := a.shadow(p.ShadowID, p.Open)
	if err != nil {
		return nil, err
	}
	for _, d := range p.Deliveries {
		if err := sh.CheckSender(d.From); err != nil {
			return nil, fmt.Errorf("dist: %w", err)
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
		before, sent, after, err := sh.Deliver(d.From, d.Msg, d.Watch, props, a.boundary)
		if err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		res := &out.Results[i]
		res.Before, res.After = before, oracleResult(after)
		if len(sent) > 0 {
			res.Emitted = make([]WireEmission, len(sent))
			for k, m := range sent {
				res.Emitted[k] = WireEmission{To: m.To, Msg: m.Data}
			}
		}
	}
	return out, nil
}

// oracleResult renders a shadow's view for the wire.
func oracleResult(v core.RouteView) QueryOracleResult {
	return QueryOracleResult{
		BestToken:   v.Token,
		HasCovering: v.Hop.HasCovering, CoveringLocal: v.Hop.Local, CoveringNextPeer: v.Hop.NextPeer,
		PropMatch: v.AtMatch,
	}
}

// queryOracle answers a forward trace's lookup of a node no wave touched.
func (a *Agent) queryOracle(p *QueryOracleParams) (*QueryOracleResult, error) {
	sh, err := a.shadow(p.ShadowID, p.Open)
	if err != nil {
		return nil, err
	}
	out := oracleResult(sh.Query(p.Prefix, nil, a.boundary))
	return &out, nil
}

package core

import (
	"fmt"
	"sync"
	"time"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/minimize"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/prop"
	"dice/internal/rib"
	"dice/internal/router"
)

// This file is the federated exploration subsystem's vocabulary and its
// in-process backend — the paper's actual system model: online testing
// across a topology of independently administered nodes, not one router
// in isolation. A federated round
//
//  1. runs per-node checkpoint/clone concolic explorations (one frontier
//     shard per node over a shared worker pool — concolic.ExploreFleet),
//  2. propagates the concrete UPDATE/WITHDRAW witnesses the per-node
//     oracles produce between nodes along topology edges, over a shadow
//     copy of the fabric so the live nodes stay unperturbed, and
//  3. evaluates cross-node properties over the propagated state: route
//     leak (an advertisement escaping a no-export policy boundary),
//     persistent oscillation (no convergence within a bounded number of
//     propagation steps), multi-hop blackhole (traffic from a remote
//     node forward-traces to a dead end), stale route.
//
// The round itself — what is explored, which witnesses are kept, the
// witness lifecycle, the verdicts — is Driver's (fleet.go), over the
// Fleet seam. Here are the option and result types, the per-target
// pipeline every backend's phase 1 runs (PrepareTarget → explore →
// Analyze → WitnessRefs), and FederatedExperiment, the Fleet that is a
// Fabric in this process: exploration is a direct ExploreFleet call, a
// shadow set is Fabric.Shadow, a query reads a router, and a relay step
// (relay.go) is a run of direct router deliveries.

// FederatedScenario is the optional Scenario extension federated rounds
// use for cross-node confirmation: scenarios that can materialize a
// finding's concrete witness announcement implement it. Findings of
// scenarios that do not are still reported locally, just never injected.
type FederatedScenario interface {
	Scenario
	// WitnessUpdate builds the concrete UPDATE the finding's peer would
	// send — the message injected into the shadow fabric.
	WitnessUpdate(seed any, f Finding) *bgp.Update
}

// FederatedOptions configures a FederatedExperiment.
type FederatedOptions struct {
	// Engine tunes every node's engine (budgets, strategy). Workers is
	// ignored here: the pool is shared, sized by Workers below.
	Engine concolic.Options
	// Workers is the shared exploration worker pool (0 = 1).
	Workers int
	// DefaultScenario applies to explore targets that don't name one
	// ("" = routeleak).
	DefaultScenario string
	// MaxPropagationSteps bounds each witness's shadow propagation;
	// hitting the bound with deliveries still pending flags
	// persistent-oscillation (0 = 4096).
	MaxPropagationSteps int
	// MaxWitnesses bounds cross-node injections per round (0 = 16).
	MaxWitnesses int
	// ReuseState keeps per-node cross-round exploration state, so
	// repeated federated rounds are incremental per node.
	ReuseState bool
	// Minimize delta-debugs every injected witness that triggered
	// cross-node violations down to a minimal still-failing announcement
	// (internal/minimize), re-validating each candidate by shadow
	// injection; the result lands in Finding.MinimalWitness and the
	// reduction stats in the target's Result.Minimization.
	Minimize bool
	// MinimizeBudget bounds candidate injections per witness (0 = 256).
	MinimizeBudget int
	// Properties are extra cross-node invariants in the internal/prop
	// language (beyond the topology's own `properties` section), e.g.
	// from cmd/dice -properties files. Entries may hold several property
	// definitions each; kinds matching built-in oracles replace them.
	Properties []string
}

// FederatedTargetResult is one node's share of a federated round.
type FederatedTargetResult struct {
	Node     string
	Peer     string
	Scenario string
	Result   *Result
	// Err records a skipped defaulted target (e.g. no observed seed on
	// that peering yet); explicit targets fail the round instead.
	Err error
}

// FederatedViolation is one cross-node oracle violation.
type FederatedViolation struct {
	// Kind is "route-leak", "persistent-oscillation",
	// "multi-hop-blackhole" or "stale-route".
	Kind string
	// Node is where the violation is observed; Source is the explored
	// node whose policy let the witness through; Peer sent the witness.
	Node   string
	Source string
	Peer   string
	Prefix netaddr.Prefix
	// Hops is the forwarding distance from Node to the trace terminal.
	Hops   int
	Detail string
	// Waves counts the distinct virtual-time delivery waves the bounded
	// propagation ran (persistent-oscillation only); WaveTail holds the
	// per-wave delivery counts of the final waves (up to prop.WaveTailLen).
	// A sustained tail means the system genuinely diverges; a decaying
	// one means it was still converging — slowly — when the bound hit.
	Waves    int
	WaveTail []int
}

func (v FederatedViolation) String() string {
	return fmt.Sprintf("%s: %s at %s (witness from %s via %s, %d hops): %s",
		v.Kind, v.Prefix, v.Node, v.Peer, v.Source, v.Hops, v.Detail)
}

// FederatedResult is the outcome of one federated round.
type FederatedResult struct {
	Targets           []FederatedTargetResult
	Violations        []FederatedViolation
	WitnessesInjected int
	WitnessesSkipped  int // dropped by the MaxWitnesses cap
	PropagationSteps  int // shadow deliveries across all witnesses
	Elapsed           time.Duration
}

// FederatedExperiment drives repeated federated rounds over one fabric:
// the in-process Fleet. Round and CheckWitness hand themselves to the
// Driver; the Fleet methods below are what the driver calls back.
type FederatedExperiment struct {
	Topo   *Topology
	Fabric *Fabric

	driver *Driver
	states *concolic.StateMap // per-node cross-round state, keyed node/scenario/peer
	nodes  []string           // sorted
	nodeAS map[string]uint16  // node name → local AS, for `via` assertions
}

// NewFederatedExperiment instantiates the topology and prepares rounds.
func NewFederatedExperiment(t *Topology, opts FederatedOptions) (*FederatedExperiment, error) {
	driver, err := NewDriver(t, opts)
	if err != nil {
		return nil, err
	}
	fabric, err := t.Build()
	if err != nil {
		return nil, err
	}
	nodeAS := make(map[string]uint16, len(fabric.Routers))
	for name, r := range fabric.Routers {
		nodeAS[name] = r.Config().LocalAS
	}
	return &FederatedExperiment{
		Topo:   t,
		Fabric: fabric,
		driver: driver,
		states: concolic.NewStateMap(),
		nodes:  fabric.NodeNames(),
		nodeAS: nodeAS,
	}, nil
}

// State exposes the per-node cross-round state map (nil entries until a
// ReuseState round ran for that node).
func (fe *FederatedExperiment) States() *concolic.StateMap { return fe.states }

// ResolvedTarget is one resolved exploration target of a federated round.
type ResolvedTarget struct {
	Node, Peer, Scenario string
	// Explicit targets come from the topology's explore list; a seed
	// failure on one fails the round, while defaulted targets skip.
	Explicit bool
	// Boundary is the community the target's routeleak oracle treats as
	// the no-export policy boundary (0 = the RFC 1997 well-known
	// NO_EXPORT). It travels with the target because the oracle runs
	// while the target is explored, not after.
	Boundary uint32
}

// leakBoundary resolves a leak boundary community setting: 0 is the RFC
// 1997 well-known NO_EXPORT.
func leakBoundary(community uint32) uint32 {
	if community != 0 {
		return community
	}
	return bgp.CommunityNoExport
}

// ResolveTargets resolves a round's exploration targets: the topology's
// explore list when present, otherwise every edge in both directions.
// Targets with an empty scenario take defaultScenario; all of them carry
// the topology's no-export community.
func (t *Topology) ResolveTargets(defaultScenario string) []ResolvedTarget {
	// A malformed no_export_community is ParseTopology's and NewDriver's
	// error to report; here it reads as unset.
	boundary, _ := t.BoundaryCommunity()
	var out []ResolvedTarget
	if len(t.Explore) > 0 {
		for _, x := range t.Explore {
			sc := x.Scenario
			if sc == "" {
				sc = defaultScenario
			}
			out = append(out, ResolvedTarget{Node: x.Node, Peer: x.Peer, Scenario: sc, Explicit: true, Boundary: boundary})
		}
		return out
	}
	for _, e := range t.Edges {
		out = append(out, ResolvedTarget{Node: e.A, Peer: e.B, Scenario: defaultScenario, Boundary: boundary})
		out = append(out, ResolvedTarget{Node: e.B, Peer: e.A, Scenario: defaultScenario, Boundary: boundary})
	}
	return out
}

// SeedUnavailableError marks a target whose scenario found nothing to
// seed from (e.g. no observed UPDATE on that peering yet). Callers
// treat it as "skip" for defaulted targets and as a round failure for
// explicit ones.
type SeedUnavailableError struct{ Err error }

func (e *SeedUnavailableError) Error() string { return e.Err.Error() }
func (e *SeedUnavailableError) Unwrap() error { return e.Err }

// TargetPrep is one resolved target's prepared exploration: the
// checkpoint clone of the live node, the scenario seed, and a declared
// engine whose handler executes against COW forks of the checkpoint and
// whose judge is the scenario's per-path oracle.
// Every Fleet's phase 1 — FederatedExperiment.Explore, the distributed
// node agent and the replica (internal/dist) — prepares targets through
// PrepareTarget / PrepareRestored, so the per-target pipeline lives in
// exactly one place.
type TargetPrep struct {
	Target     ResolvedTarget
	Scenario   Scenario
	Seed       any
	Engine     *concolic.Engine
	Checkpoint *router.Router
	Sink       *netsim.CaptureSink

	round *Round // what the scenario's judge and fold both see
}

// PrepareTarget performs the shared per-target prep: scenario lookup,
// seed derivation from the live node (a missing seed returns
// *SeedUnavailableError), checkpoint clone with capture sink, handler
// over COW clones, the scenario's judge, warm cross-round state
// attachment (states keyed by WarmKey when reuse is set), and
// symbolic declaration.
// The returned engine is ready to explore — solo (Engine.Explore, the
// agent's path) or as a fleet member (the in-process path).
func PrepareTarget(live *router.Router, tg ResolvedTarget, engOpts concolic.Options, states *concolic.StateMap, reuse bool) (*TargetPrep, error) {
	sc, ok := LookupScenario(tg.Scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (registered: %v)", tg.Scenario, ScenarioNames())
	}
	seed, err := sc.Seed(live, tg.Peer)
	if err != nil {
		return nil, &SeedUnavailableError{Err: err}
	}
	if reuse {
		engOpts.State = states.For(WarmKey(tg.Node, tg.Scenario, tg.Peer))
	}
	ckpt, sink := checkpointOf(live, nil)
	return prepareSeeded(ckpt, sink, tg, sc, seed, engOpts, nil)
}

// WarmKey names one target's cross-round exploration state wherever it
// is kept: a concolic.StateMap in process or on an agent, the
// coordinator's warm cache of replica shards.
func WarmKey(node, scenario, peer string) string {
	return node + "/" + scenario + "/" + peer
}

// runDecorator replaces a target's default run handler — fork an O(1)
// COW clone of the checkpoint, execute — with one that forks and
// observes clones its own way. exec is the scenario's execution over
// whatever clone the decorator hands it.
type runDecorator func(ckpt *router.Router, sink *netsim.CaptureSink, exec func(*concolic.RunContext, *router.Router) any) func(*concolic.RunContext) any

// checkpointOf takes the checkpoint exploration forks from. Like the
// paper's fork(), it is the only operation that touches the live process:
// one deep clone onto a fresh capture sink, under lock when the live node
// has a state lock.
func checkpointOf(live *router.Router, lock sync.Locker) (*router.Router, *netsim.CaptureSink) {
	sink := netsim.NewCaptureSink()
	var ckpt *router.Router
	withLock(lock, func() { ckpt = live.Clone(sink) })
	return ckpt, sink
}

// prepareSeeded is handler → judge → declare over a checkpoint whose
// sends go to sink, written once for the federated backends, single-node
// DiCE and the replica alike. Every exploration clone forks from ckpt,
// never from a live router. Cross-round state, when any, arrives on
// engOpts.State.
func prepareSeeded(ckpt *router.Router, sink *netsim.CaptureSink, tg ResolvedTarget, sc Scenario, seed any, engOpts concolic.Options, decorate runDecorator) (*TargetPrep, error) {
	exec := func(rc *concolic.RunContext, clone *router.Router) any {
		return sc.Execute(rc, clone, tg.Peer, seed)
	}
	handler := func(rc *concolic.RunContext) any { return exec(rc, ckpt.CloneCOW(sink)) }
	if decorate != nil {
		handler = decorate(ckpt, sink, exec)
	}
	eng := concolic.NewEngine(handler, engOpts)
	round := &Round{Peer: tg.Peer, Seed: seed, Engine: eng, Checkpoint: ckpt, Boundary: leakBoundary(tg.Boundary)}
	if j, ok := sc.(PathJudge); ok {
		eng.Judge(func(p *concolic.PathResult) any { return j.Judge(round, p) })
	}
	if err := sc.Declare(eng, seed); err != nil {
		return nil, err
	}
	return &TargetPrep{Target: tg, Scenario: sc, Seed: seed, Engine: eng, Checkpoint: ckpt, Sink: sink, round: round}, nil
}

// Analyze folds a finished exploration of p.Engine into the target's
// Result — the shared tail of the per-target pipeline. The per-path
// oracle work already happened during the exploration, against the
// boundary the target was prepared with (ResolvedTarget.Boundary); the
// boundary argument is the caller's view of it, and a caller that
// prepared with one boundary and analyzes with another has mixed two
// topologies up — that is a bug, and Analyze panics on it rather than
// report findings judged against the wrong community. 0 means the RFC
// 1997 NO_EXPORT on both sides. The fold reads neither the live router
// nor the engine options; the parameters stay because benchmark/trace.go
// (frozen) passes them.
func (p *TargetPrep) Analyze(_ *router.Router, _ concolic.Options, boundary uint32, rep *concolic.Report) *Result {
	if got := leakBoundary(boundary); got != p.round.Boundary {
		panic(fmt.Sprintf("core: %s/%s prepared with leak boundary %#x, analyzed with %#x",
			p.Target.Node, p.Target.Peer, p.round.Boundary, got))
	}
	return p.analyze(rep)
}

// analyze runs the scenario's fold over a report of p.Engine.
func (p *TargetPrep) analyze(rep *concolic.Report) *Result {
	r := &Result{
		Scenario:         p.Scenario.Name(),
		Report:           rep,
		CapturedMessages: p.Sink.Count(),
	}
	p.Scenario.Analyze(p.round, r)
	return r
}

// WitnessRef is one materialized witness announcement together with the
// index of the finding it came from, so per-witness artifacts (the
// minimal witness, in particular) land back on the right finding.
type WitnessRef struct {
	// Finding indexes Result.Findings.
	Finding int
	Update  *bgp.Update
}

// WitnessRefs materializes the analyzed result's validated findings as
// concrete announcements, in finding order (nil when the scenario is
// not federated). Deduplication is round-level and stays with the
// caller (WitnessKey).
func (p *TargetPrep) WitnessRefs(r *Result) []WitnessRef {
	ws, ok := p.Scenario.(FederatedScenario)
	if !ok {
		return nil
	}
	var out []WitnessRef
	for i, f := range r.Findings {
		if !f.Validated {
			continue
		}
		u := ws.WitnessUpdate(p.Seed, f)
		if u == nil || len(u.NLRI) == 0 {
			continue
		}
		out = append(out, WitnessRef{Finding: i, Update: u})
	}
	return out
}

// WitnessKey identifies a concrete witness for per-round deduplication:
// the explored (node, peer) edge plus the announcement's leading prefix
// and community set.
func WitnessKey(node, peer string, u *bgp.Update) string {
	return fmt.Sprintf("%s|%s|%s|%v", node, peer, u.NLRI[0], u.Attrs.Communities)
}

// Round runs one federated exploration round: per-node concolic
// exploration over the shared worker pool, then cross-node witness
// propagation and the cross-node properties.
func (fe *FederatedExperiment) Round() (*FederatedResult, error) {
	return fe.driver.Round(fe)
}

// CheckWitness injects one concrete witness announcement into a fresh
// shadow fabric, propagates it along topology edges and evaluates the
// experiment's property set over what it did (Driver.CheckWitness).
func (fe *FederatedExperiment) CheckWitness(node, peer string, w *bgp.Update) (*WitnessOutcome, error) {
	return fe.driver.CheckWitness(fe, WitnessSpec{Node: node, Peer: peer, Update: w})
}

// Nodes lists the fabric's node names, sorted (Fleet).
func (fe *FederatedExperiment) Nodes() []string { return fe.nodes }

// NodeAS resolves a node name to its local AS (Fleet).
func (fe *FederatedExperiment) NodeAS(name string) (uint16, bool) {
	as, ok := fe.nodeAS[name]
	return as, ok
}

// Explore is phase 1 in one process (Fleet): prepare one engine per
// target — checkpoint clone of the live node, scenario seed, symbolic
// declaration — explore them as one frontier shard per node over one
// shared worker pool, then run each scenario's own oracles against its
// node's checkpoint-time state.
func (fe *FederatedExperiment) Explore(targets []ResolvedTarget) ([]TargetOutcome, error) {
	opts := &fe.driver.Opts
	outs := make([]TargetOutcome, len(targets))
	var (
		preps   []*TargetPrep
		slots   []int // preps[k] is targets[slots[k]]
		members []concolic.FleetMember
	)
	for i, tg := range targets {
		live, ok := fe.Fabric.Routers[tg.Node]
		if !ok {
			return nil, fmt.Errorf("federated: unknown node %q", tg.Node)
		}
		tp, err := PrepareTarget(live, tg, opts.Engine, fe.states, opts.ReuseState)
		if err != nil {
			outs[i].Err = err
			continue
		}
		preps, slots = append(preps, tp), append(slots, i)
		members = append(members, concolic.FleetMember{ID: tg.Node, Engine: tp.Engine})
	}
	reports := concolic.ExploreFleet(members, opts.Workers)
	for k, tp := range preps {
		r := tp.Analyze(fe.Fabric.Routers[tp.Target.Node], opts.Engine, fe.driver.Boundary, reports[k])
		outs[slots[k]] = TargetOutcome{Result: r, Witnesses: tp.WitnessRefs(r)}
	}
	return outs, nil
}

// OpenShadows is Fabric.Shadow with a relay of its own (Fleet).
func (fe *FederatedExperiment) OpenShadows() (Shadows, error) {
	shadow, err := fe.Fabric.Shadow()
	if err != nil {
		return nil, err
	}
	return &fabricShadows{shadow, fe.driver, fe.driver.NewRelay()}, nil
}

// fabricShadows is a shadow fabric as the driver's Shadows: routers are
// read directly, and the relay runs the waves over them.
type fabricShadows struct {
	*ShadowFabric
	driver *Driver
	relay  *Relay
}

func (s *fabricShadows) Query(node string, p netaddr.Prefix) (RouteView, error) {
	return s.view(node, p, nil), nil
}

// view reads one router's answer about p; the route object is its own
// identity token in process.
func (s *fabricShadows) view(node string, p netaddr.Prefix, props []*prop.Compiled) RouteView {
	r := s.Routers[node]
	if r == nil {
		return RouteView{}
	}
	best, hop, atMatch := QueryRoute(r, p, props, s.driver.Boundary)
	v := RouteView{Hop: hop, AtMatch: atMatch}
	if best != nil {
		v.Token = best
	}
	return v
}

// QueryRoute is the narrow cross-domain route query, computed in one
// place for both backends (fabricShadows.view here; the node agent's
// query_oracle and its inject_witness after-views over RPC): r's
// exact-prefix best route for p (nil when it
// has none — the backend turns the object into its own identity token),
// the covering best route's forwarding decision, and one `at` verdict
// per property in props over the best route, by list index. A node
// without a best route answers true throughout: the driver only consults
// verdicts for witness-installed nodes. An empty props asks for no `at`
// evidence.
func QueryRoute(r *router.Router, p netaddr.Prefix, props []*prop.Compiled, boundary uint32) (best *rib.Route, hop ForwardHop, atMatch []bool) {
	best = r.RIB().Best(p)
	if cov := r.RIB().CoveringBest(p); cov != nil {
		hop = ForwardHop{HasCovering: true, Local: cov.Local}
		if !cov.Local {
			hop.NextPeer = r.PeerNameByAddr(cov.PeerRouterID)
		}
	}
	if len(props) > 0 {
		var env *prop.Env
		if best != nil {
			env = prop.NewEnv(p, &best.Attrs, boundary)
		}
		atMatch = make([]bool, len(props))
		for i, c := range props {
			atMatch[i] = c.AtMatches(env)
		}
	}
	return best, hop, atMatch
}

// Propagate relays the group's waves through the shadow routers, then
// reads each touched node's view of its wave's prefix once.
func (s *fabricShadows) Propagate(group []Injection, maxSteps int, wantAt bool) ([]Wave, error) {
	waves, err := s.relay.Run(group, maxSteps, s.Deliver)
	if err != nil {
		return nil, err
	}
	var props []*prop.Compiled
	if wantAt {
		props = s.driver.Props
	}
	for i, w := range waves {
		for name, ch := range w.Touched {
			ch.After = s.view(name, group[i].Watch, props)
			w.Touched[name] = ch
		}
	}
	return waves, nil
}

func (*fabricShadows) Close() {}

// WitnessOutcome is one candidate injection's verdict.
type WitnessOutcome struct {
	Violations []FederatedViolation
	// Steps counts the shadow deliveries the bounded propagation ran
	// (UPDATE and WITHDRAW waves together).
	Steps int
}

// ViolationFingerprint identifies a violation for witness minimization:
// the oracle kind and its attribution (observing node, source node,
// sending peer) — everything except the witness-dependent prefix, hop
// count and detail text, which legitimately change as the witness
// shrinks.
func ViolationFingerprint(v FederatedViolation) string {
	return v.Kind + "|" + v.Node + "|" + v.Source + "|" + v.Peer
}

// CoversFingerprints reports whether got reproduces every violation in
// want (by attribution fingerprint). Minimization accepts a candidate
// only under this condition: the minimal witness must still demonstrate
// everything the original did.
func CoversFingerprints(got []FederatedViolation, want map[string]bool) bool {
	have := make(map[string]bool, len(got))
	for _, v := range got {
		have[ViolationFingerprint(v)] = true
	}
	for fp := range want {
		if !have[fp] {
			return false
		}
	}
	return true
}

// MinimizeWitness delta-debugs one confirmed witness against check (a
// fresh-shadow re-execution of a candidate), accepting a candidate only
// if every violation the original triggered still fires with the same
// attribution fingerprint.
func MinimizeWitness(check func(*bgp.Update) (*WitnessOutcome, error), w *bgp.Update, vs []FederatedViolation, budget int) (*bgp.Update, *minimize.Stats, error) {
	want := make(map[string]bool, len(vs))
	for _, v := range vs {
		want[ViolationFingerprint(v)] = true
	}
	oracle := func(cand *bgp.Update) (bool, error) {
		out, err := check(cand)
		if err != nil {
			return false, err
		}
		return CoversFingerprints(out.Violations, want), nil
	}
	return minimize.Witness(w, oracle, minimize.Options{MaxCandidates: budget})
}

// ForwardHop is one node's forwarding decision for a prefix: whether a
// route covers it, whether that route is locally originated, and
// otherwise which peer traffic is handed to ("" when the route's next
// hop is no configured peer). The zero value is "no covering route",
// which is also the right answer for a node the lookup doesn't know.
type ForwardHop struct {
	HasCovering, Local bool
	NextPeer           string
}

// TraceForward follows best-route provenance from a node toward the
// advertising neighbor, hop by hop, until delivery (a locally originated
// covering route), a dead end (no covering route, or a next hop that
// names no peer), or a forwarding loop. It models where traffic for the
// prefix actually goes — the multi-hop blackhole oracle's core. path
// lists every node visited, origin first and terminal last, feeding
// `never reachable via` property assertions. lookup reads what the UPDATE
// wave reported about each node it touched (Driver.CollectFacts); its
// error aborts the walk.
func TraceForward(from string, lookup func(node string) (ForwardHop, error)) (terminal string, hops int, delivered bool, path []string, err error) {
	cur := from
	visited := map[string]bool{}
	for {
		path = append(path, cur)
		if visited[cur] {
			return cur, hops, false, path, nil // forwarding loop
		}
		visited[cur] = true
		hop, err := lookup(cur)
		if err != nil || !hop.HasCovering || (!hop.Local && hop.NextPeer == "") {
			return cur, hops, false, path, err // dead end: no covering route, or one toward no peer
		}
		if hop.Local {
			return cur, hops, true, path, nil // delivered to the originating AS
		}
		cur = hop.NextPeer
		hops++
	}
}

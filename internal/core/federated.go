package core

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/minimize"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/prop"
	"dice/internal/router"
	"dice/internal/solver"
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
// Fabric in this process: exploration is a direct ExploreFleet call, and
// a shadow set is a map of node shadows (NodeShadow) called directly.

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
	// Engine tunes every node's engine (budgets). Workers is
	// ignored here: the pool is shared, sized by Workers below.
	Engine concolic.Options
	// Workers is the shared exploration worker pool (0 = 1). It also
	// bounds the witness groups checked at once, and so the shadow sets
	// open at once.
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
	Hops int
	// Cause holds the detail's operands; AppendDetail renders it.
	Cause prop.Cause
	// Waves counts the distinct virtual-time delivery waves the bounded
	// propagation ran (persistent-oscillation only); WaveTail holds the
	// per-wave delivery counts of the final waves (up to prop.WaveTailLen).
	// A sustained tail means the system genuinely diverges; a decaying
	// one means it was still converging — slowly — when the bound hit.
	Waves    int
	WaveTail []int
}

// String renders the violation the way reports and the CLI print it.
func (v FederatedViolation) String() string {
	return string(v.AppendTo(nil))
}

// AppendTo appends the violation's report text to dst.
func (v *FederatedViolation) AppendTo(dst []byte) []byte {
	dst = append(append(dst, v.Kind...), ": "...)
	dst = append(append(v.Prefix.AppendTo(dst), " at "...), v.Node...)
	dst = append(append(dst, " (witness from "...), v.Peer...)
	dst = append(append(dst, " via "...), v.Source...)
	dst = append(strconv.AppendInt(append(dst, ", "...), int64(v.Hops), 10), " hops): "...)
	return v.AppendDetail(dst)
}

// Detail renders the violation's detail text.
func (v FederatedViolation) Detail() string {
	return string(v.AppendDetail(nil))
}

// AppendDetail appends the violation's detail text to dst.
func (v *FederatedViolation) AppendDetail(dst []byte) []byte {
	return v.Cause.AppendTo(dst, v.Node, v.Hops, v.Waves, v.WaveTail)
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

	shadowsOpened atomic.Int64 // ShadowsOpened
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
// Every Fleet's phase 1 — FederatedExperiment.Explore and the distributed
// node agent (internal/dist) — prepares targets through PrepareTarget, so
// the per-target pipeline lives in exactly one place.
type TargetPrep struct {
	Target     ResolvedTarget
	Scenario   Scenario
	Seed       any
	Engine     *concolic.Engine
	Checkpoint *router.Router
	Sink       *netsim.CaptureSink

	round *Round // what the scenario's judge and fold both see
}

// PrepareTarget performs the shared per-target prep (prepare): scenario
// lookup, checkpoint clone with capture sink, seed derivation from the
// checkpoint (a missing seed returns *SeedUnavailableError), handler over
// COW clones, the scenario's judge, warm cross-round state attachment
// (states keyed by WarmKey when reuse is set), and symbolic declaration.
// The returned engine is ready to explore — solo (Engine.Explore, the
// agent's path) or as a fleet member (the in-process path).
func PrepareTarget(live *router.Router, tg ResolvedTarget, engOpts concolic.Options, states *concolic.StateMap, reuse bool) (*TargetPrep, error) {
	if !reuse {
		states = nil
	}
	return prepare(live, nil, tg, engOpts, states, nil)
}

// prepare is the one round prep, every target's and single-node DiCE's:
// it takes the checkpoint (under lock, when the live node has one), reads
// the seed from the checkpoint, so the two are of one instant, and, once
// there is a seed, attaches the target's warm state from states (nil: keep
// engOpts.State) before prepareSeeded. meter, when set, observes the
// round's clones.
func prepare(live *router.Router, lock sync.Locker, tg ResolvedTarget, engOpts concolic.Options, states *concolic.StateMap, meter *memoryMeter) (*TargetPrep, error) {
	ckpt, sink := checkpointOf(live, lock)
	sc, seed, err := seedOf(ckpt, tg)
	if err != nil {
		return nil, err
	}
	if states != nil {
		engOpts.State = states.For(WarmKey(tg.Node, tg.Scenario, tg.Peer))
	}
	return prepareSeeded(ckpt, sink, tg, sc, seed, engOpts, meter)
}

// seedOf looks tg's scenario up and derives its seed from r — a
// checkpoint of the live node (Router.Clone shares the seeds' bytes); a
// scenario with nothing to seed from returns *SeedUnavailableError.
func seedOf(r *router.Router, tg ResolvedTarget) (Scenario, any, error) {
	sc, err := LookupScenario(tg.Scenario)
	if err != nil {
		return nil, nil, err
	}
	seed, err := sc.Seed(r, tg.Peer)
	if err != nil {
		return nil, nil, &SeedUnavailableError{Err: err}
	}
	return sc, seed, nil
}

// WarmKey names one target's cross-round exploration state wherever it
// is kept — a concolic.StateMap in process or on an agent — and the
// target's finding keys in the coordinator's degraded-replacement filter.
func WarmKey(node, scenario, peer string) string {
	return node + "/" + scenario + "/" + peer
}

// checkpointOf takes the checkpoint exploration forks from. Like the
// paper's fork(), it is the only operation that touches the live process,
// and it costs O(1) in the table size: one Router.Clone (the RIB's trie
// root shared, see rib.Table) onto a fresh capture sink, under lock when
// the live node has a state lock.
func checkpointOf(live *router.Router, lock sync.Locker) (*router.Router, *netsim.CaptureSink) {
	sink := netsim.NewCaptureSink()
	var ckpt *router.Router
	withLock(lock, func() { ckpt = live.Clone(sink) })
	return ckpt, sink
}

// prepareSeeded is handler → judge → declare over a checkpoint whose
// sends go to sink. Every run forks an O(1) COW clone of ckpt, never of a
// live router, executes the scenario on it and, when meter is set, hands
// it to the meter. Cross-round state, when any, arrives on engOpts.State.
func prepareSeeded(ckpt *router.Router, sink *netsim.CaptureSink, tg ResolvedTarget, sc Scenario, seed any, engOpts concolic.Options, meter *memoryMeter) (*TargetPrep, error) {
	if meter != nil {
		meter.prepared(ckpt)
	}
	handler := func(rc *concolic.RunContext) any {
		clone := ckpt.CloneCOW(sink)
		out := sc.Execute(rc, clone, tg.Peer, seed)
		if meter != nil {
			meter.observe(clone)
		}
		return out
	}
	eng := concolic.NewEngine(handler, engOpts)
	round := &Round{Peer: tg.Peer, Seed: seed, Engine: eng, Checkpoint: ckpt, Boundary: leakBoundary(tg.Boundary)}
	if j, ok := sc.(PathJudge); ok {
		eng.Judge(func(p *concolic.PathResult, sv *solver.Solver) any { return j.Judge(round, p, sv) })
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

// analyze runs the scenario's fold over a report of p.Engine and puts
// the findings in canonical order: every backend's tail, so nothing
// downstream — witnesses, the per-round cap, snapshots — sees the schedule.
func (p *TargetPrep) analyze(rep *concolic.Report) *Result {
	r := &Result{
		Scenario:         p.Scenario.Name(),
		Report:           rep,
		CapturedMessages: p.Sink.Count(),
	}
	p.Scenario.Analyze(p.round, r)
	sortFindings(r.Findings)
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
	dst := make([]byte, 0, len(node)+len(peer)+24+11*len(u.Attrs.Communities))
	dst = append(append(append(append(dst, node...), '|'), peer...), '|')
	dst = append(u.NLRI[0].AppendTo(dst), "|["...)
	for i, c := range u.Attrs.Communities {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendUint(dst, uint64(c), 10)
	}
	return string(append(dst, ']'))
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

// OpenShadows starts a shadow set (Fleet): a node is cloned
// (OpenShadow) on the set's first delivery to it or query about it, as
// an agent clones on a set's first call. The set's shadows decode through
// one bgp.Decoder and its attribute table, so an attribute set that
// reaches several of its nodes is decoded once.
func (fe *FederatedExperiment) OpenShadows() Shadows {
	return &FabricShadows{
		fe: fe, relay: fe.driver.AcquireRelay(), dec: bgp.Decoder{Table: bgp.NewAttrTable()},
		nodes: make(map[string]*NodeShadow, len(fe.nodes)),
	}
}

// ShadowsOpened counts the node shadows opened here, as the agents'
// dice_agent_shadows_opened_total counts theirs.
func (fe *FederatedExperiment) ShadowsOpened() int64 { return fe.shadowsOpened.Load() }

// FabricShadows is the in-process Shadows: the node shadows of one set,
// read and delivered to by direct calls.
type FabricShadows struct {
	fe    *FederatedExperiment
	relay *Relay
	dec   bgp.Decoder // every shadow's, with the set's attribute table
	nodes map[string]*NodeShadow
	props []*prop.Compiled // the running Propagate's `at` properties
}

// node returns the set's shadow of name, opening it on the first call; nil
// for a node the fabric does not have.
func (s *FabricShadows) node(name string) *NodeShadow {
	sh := s.nodes[name]
	if sh == nil {
		live := s.fe.Fabric.Routers[name]
		if live == nil {
			return nil
		}
		sh = OpenShadow(live, s.fe.Fabric.Net.Now(), &s.dec)
		s.nodes[name] = sh
		s.fe.shadowsOpened.Add(1)
	}
	return sh
}

// Query answers from node's shadow (Shadows).
func (s *FabricShadows) Query(node string, p netaddr.Prefix) (RouteView, error) {
	sh := s.node(node)
	if sh == nil {
		return RouteView{}, nil
	}
	return sh.Query(p, nil, s.fe.driver.Boundary), nil
}

// Propagate relays the group's waves through the set's shadows.
func (s *FabricShadows) Propagate(group []Injection, maxSteps int, wantAt bool) ([]Wave, error) {
	s.props = nil
	if wantAt {
		s.props = s.fe.driver.Props
	}
	return s.relay.Run(group, maxSteps, s.Step)
}

// Step is the in-process relay step (StepFunc): each delivery, in order,
// straight into its node's shadow, handing on what the node sent.
func (s *FabricShadows) Step(step []Delivery, _ int, emit func(d *Delivery, to string, msg []byte)) error {
	for i := range step {
		d := &step[i]
		sh := s.node(d.To)
		if sh == nil {
			return NoPeerError(d.To, d.From)
		}
		before, sent, after, err := sh.Deliver(d.From, d.Data, d.Watch, s.props, s.fe.driver.Boundary)
		if err != nil {
			return err
		}
		d.Before, d.After = before, after
		for _, m := range sent {
			emit(d, m.To, m.Data)
		}
	}
	return nil
}

// Close hands the relay back to the driver; the shadows and their
// attribute table are garbage once the set is.
func (s *FabricShadows) Close() {
	if s.relay != nil {
		s.fe.driver.ReleaseRelay(s.relay)
		s.relay, s.dec, s.nodes = nil, bgp.Decoder{}, nil
	}
}

// WitnessOutcome is one candidate injection's verdict.
type WitnessOutcome struct {
	Violations []FederatedViolation
	// Steps counts the shadow deliveries the bounded propagation ran
	// (UPDATE and WITHDRAW waves together).
	Steps int
	// verdicts are the violations as prop.Evaluate found them, in a
	// pooled buffer, until layOut renders them into Violations.
	verdicts []prop.Violation
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
// `never reachable via` property assertions; it is written from the
// start of buf, whose capacity the caller lends. lookup reads what the
// UPDATE wave reported about each node it touched (Driver.CollectFacts);
// its error aborts the walk.
func TraceForward(buf []string, from string, lookup func(node string) (ForwardHop, error)) (terminal string, hops int, delivered bool, path []string, err error) {
	cur, path := from, buf[:0]
	for {
		if slices.Contains(path, cur) {
			return cur, hops, false, append(path, cur), nil // forwarding loop
		}
		path = append(path, cur)
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

package core

import (
	"errors"
	"fmt"
	"sort"
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

// This file is the federated exploration subsystem — the paper's actual
// system model: online testing across a topology of independently
// administered nodes, not one router in isolation. A federated round
//
//  1. runs per-node checkpoint/clone concolic explorations (one frontier
//     shard per node over a shared worker pool — concolic.ExploreFleet),
//  2. propagates the concrete UPDATE/WITHDRAW witnesses the per-node
//     oracles produce between nodes along topology edges, over a shadow
//     copy of the fabric so the live nodes stay unperturbed, and
//  3. evaluates cross-node oracles over the propagated state: route
//     leak (an advertisement escaping a no-export policy boundary),
//     persistent oscillation (no convergence within a bounded number of
//     propagation steps), and multi-hop blackhole (traffic from a remote
//     node forward-traces to a dead end).

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
	// per-wave delivery counts of the final waves (up to WaveTailLen).
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

// FederatedExperiment drives repeated federated rounds over one fabric.
type FederatedExperiment struct {
	Topo   *Topology
	Fabric *Fabric

	opts     FederatedOptions
	states   *concolic.StateMap // per-node cross-round state, keyed node/scenario/peer
	boundary uint32
	props    []*prop.Compiled  // merged oracle set (builtins + topology + options)
	nodeAS   map[string]uint16 // node name → local AS, for `via` assertions
}

// NewFederatedExperiment instantiates the topology and prepares rounds.
func NewFederatedExperiment(t *Topology, opts FederatedOptions) (*FederatedExperiment, error) {
	if opts.DefaultScenario == "" {
		opts.DefaultScenario = ScenarioRouteLeak
	}
	if opts.MaxPropagationSteps <= 0 {
		opts.MaxPropagationSteps = 4096
	}
	if opts.MaxWitnesses <= 0 {
		opts.MaxWitnesses = 16
	}
	if opts.Engine.State != nil {
		// One ExploreState shared by every node would let fingerprint-
		// identical paths on different nodes mask each other's exploration
		// (structurally identical filters fold to the same signatures).
		// Per-node memory is what ReuseState provides.
		return nil, fmt.Errorf("federated: Engine.State cannot be shared across nodes; set ReuseState for per-node state")
	}
	boundary, err := t.BoundaryCommunity()
	if err != nil {
		return nil, err
	}
	props, err := CompileProperties(t, opts.Properties)
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
		Topo:     t,
		Fabric:   fabric,
		opts:     opts,
		states:   concolic.NewStateMap(),
		boundary: boundary,
		props:    props,
		nodeAS:   nodeAS,
	}, nil
}

// CompileProperties compiles the topology's `properties` section plus
// extra property sources and merges them over the built-in oracles.
// Both backends (this experiment and the distributed coordinator)
// resolve their oracle set through here, so they cannot disagree on
// what a round checks.
func CompileProperties(t *Topology, extra []string) ([]*prop.Compiled, error) {
	srcs := append(append([]string{}, t.Properties...), extra...)
	custom, err := prop.CompileSources(srcs)
	if err != nil {
		return nil, fmt.Errorf("federated: %w", err)
	}
	return prop.Merge(custom), nil
}

// Properties exposes the experiment's merged oracle set.
func (fe *FederatedExperiment) Properties() []*prop.Compiled { return fe.props }

// State exposes the per-node cross-round state map (nil entries until a
// ReuseState round ran for that node).
func (fe *FederatedExperiment) States() *concolic.StateMap { return fe.states }

// ResolvedTarget is one resolved exploration target of a federated round.
type ResolvedTarget struct {
	Node, Peer, Scenario string
	// Explicit targets come from the topology's explore list; a seed
	// failure on one fails the round, while defaulted targets skip.
	Explicit bool
}

// ResolveTargets resolves a round's exploration targets: the topology's
// explore list when present, otherwise every edge in both directions.
// Targets with an empty scenario take defaultScenario. Both the
// in-process FederatedExperiment and the distributed coordinator
// (internal/dist) resolve through here, so the two backends agree on
// what a round explores.
func (t *Topology) ResolveTargets(defaultScenario string) []ResolvedTarget {
	var out []ResolvedTarget
	if len(t.Explore) > 0 {
		for _, x := range t.Explore {
			sc := x.Scenario
			if sc == "" {
				sc = defaultScenario
			}
			out = append(out, ResolvedTarget{Node: x.Node, Peer: x.Peer, Scenario: sc, Explicit: true})
		}
		return out
	}
	for _, e := range t.Edges {
		out = append(out, ResolvedTarget{Node: e.A, Peer: e.B, Scenario: defaultScenario})
		out = append(out, ResolvedTarget{Node: e.B, Peer: e.A, Scenario: defaultScenario})
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
// engine whose handler executes against COW forks of the checkpoint.
// Both federated backends — the in-process FederatedExperiment and the
// distributed node agent (internal/dist) — prepare targets through
// PrepareTarget, so the per-target pipeline (and with it the parity
// contract) lives in exactly one place.
type TargetPrep struct {
	Target     ResolvedTarget
	Scenario   Scenario
	Seed       any
	Engine     *concolic.Engine
	Checkpoint *router.Router
	Sink       *netsim.CaptureSink
}

// PrepareTarget performs the shared per-target prep: scenario lookup,
// seed derivation from the live node (a missing seed returns
// *SeedUnavailableError), checkpoint clone with capture sink, handler
// over COW clones, warm cross-round state attachment (states keyed
// node/scenario/peer when reuse is set), and symbolic declaration.
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
	return prepareSeeded(live, tg, sc, seed, engOpts, states, reuse)
}

// PrepareTargetSeeded is PrepareTarget with the scenario seed supplied by
// the caller instead of derived from the live node. This is the replica
// entry point: a checkpoint-restored router has no observation history
// (DecodeState rebuilds routes and sessions, not the last-seen UPDATE
// templates), so the seed ships over the wire alongside the checkpoint.
// Warm cross-round memory, when any, arrives pre-attached on
// engOpts.State rather than through a StateMap.
func PrepareTargetSeeded(live *router.Router, tg ResolvedTarget, seed any, engOpts concolic.Options) (*TargetPrep, error) {
	sc, ok := LookupScenario(tg.Scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (registered: %v)", tg.Scenario, ScenarioNames())
	}
	if seed == nil {
		return nil, &SeedUnavailableError{Err: fmt.Errorf("no seed supplied for %s/%s", tg.Node, tg.Peer)}
	}
	return prepareSeeded(live, tg, sc, seed, engOpts, nil, false)
}

func prepareSeeded(live *router.Router, tg ResolvedTarget, sc Scenario, seed any, engOpts concolic.Options, states *concolic.StateMap, reuse bool) (*TargetPrep, error) {
	sink := netsim.NewCaptureSink()
	ckpt := live.Clone(sink)
	handler := func(rc *concolic.RunContext) any {
		return sc.Execute(rc, ckpt.CloneCOW(sink), tg.Peer, seed)
	}
	if reuse {
		engOpts.State = states.For(tg.Node + "/" + tg.Scenario + "/" + tg.Peer)
	}
	eng := concolic.NewEngine(handler, engOpts)
	if err := sc.Declare(eng, seed); err != nil {
		return nil, err
	}
	return &TargetPrep{Target: tg, Scenario: sc, Seed: seed, Engine: eng, Checkpoint: ckpt, Sink: sink}, nil
}

// Analyze runs the scenario's oracles over a finished exploration and
// returns the target's Result — the shared tail of the per-target
// pipeline (boundary plumbed to the routeleak oracle, checkpoint-time
// state as the comparison baseline, witness validation inside).
func (p *TargetPrep) Analyze(live *router.Router, engOpts concolic.Options, boundary uint32, rep *concolic.Report) *Result {
	r := &Result{
		Scenario:         p.Scenario.Name(),
		Report:           rep,
		CapturedMessages: p.Sink.Count(),
	}
	d := New(live, Options{Engine: engOpts, LeakBoundaryCommunity: boundary})
	p.Scenario.Analyze(d, &Round{Peer: p.Target.Peer, Seed: p.Seed, Engine: p.Engine, Checkpoint: p.Checkpoint}, r)
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
// and community set. The in-process backend and the distributed
// coordinator (internal/dist) must dedup identically — both key through
// here.
func WitnessKey(node, peer string, u *bgp.Update) string {
	return fmt.Sprintf("%s|%s|%s|%v", node, peer, u.NLRI[0], u.Attrs.Communities)
}

// Round runs one federated exploration round: per-node concolic
// exploration over the shared worker pool, then cross-node witness
// propagation and the cross-node oracles.
func (fe *FederatedExperiment) Round() (*FederatedResult, error) {
	start := time.Now()
	res := &FederatedResult{}

	// Phase 1: prepare one engine per target — checkpoint clone of the
	// live node, scenario seed and symbolic declaration (PrepareTarget,
	// shared with the distributed agent).
	type prep struct {
		*TargetPrep
		slot int // index into res.Targets (Targets keep resolution order)
	}
	var preps []*prep
	var members []concolic.FleetMember
	for _, tg := range fe.Topo.ResolveTargets(fe.opts.DefaultScenario) {
		live, ok := fe.Fabric.Routers[tg.Node]
		if !ok {
			return nil, fmt.Errorf("federated: unknown node %q", tg.Node)
		}
		// Targets report in resolution order whether they run or skip —
		// the distributed coordinator keeps the same order, so the two
		// backends' result lists zip index by index.
		slot := len(res.Targets)
		res.Targets = append(res.Targets, FederatedTargetResult{
			Node: tg.Node, Peer: tg.Peer, Scenario: tg.Scenario,
		})
		tp, err := PrepareTarget(live, tg, fe.opts.Engine, fe.states, fe.opts.ReuseState)
		if err != nil {
			var seedErr *SeedUnavailableError
			if errors.As(err, &seedErr) && !tg.Explicit {
				// Defaulted target with nothing observed yet: skip, visibly.
				res.Targets[slot].Err = seedErr.Err
				continue
			}
			return nil, fmt.Errorf("federated: %s/%s: %w", tg.Node, tg.Peer, err)
		}
		preps = append(preps, &prep{TargetPrep: tp, slot: slot})
		members = append(members, concolic.FleetMember{ID: tg.Node, Engine: tp.Engine})
	}

	// Phase 2: one frontier shard per node, one shared worker pool.
	reports := concolic.ExploreFleet(members, fe.opts.Workers)

	// Phase 3: per-node oracles (each scenario's own Analyze, against the
	// node's checkpoint-time state), then cross-node witness propagation.
	type witness struct {
		node, peer string
		update     *bgp.Update
		finding    *Finding // the validated finding behind the update
		result     *Result  // its target's result (minimization stats)
	}
	var witnesses []witness
	seenWitness := map[string]bool{}
	for i, pr := range preps {
		tg := pr.Target
		r := pr.Analyze(fe.Fabric.Routers[tg.Node], fe.opts.Engine, fe.boundary, reports[i])
		res.Targets[pr.slot].Result = r
		for _, wr := range pr.WitnessRefs(r) {
			key := WitnessKey(tg.Node, tg.Peer, wr.Update)
			if seenWitness[key] {
				continue
			}
			seenWitness[key] = true
			witnesses = append(witnesses, witness{
				node: tg.Node, peer: tg.Peer, update: wr.Update,
				finding: &r.Findings[wr.Finding], result: r,
			})
		}
	}

	for _, w := range witnesses {
		if res.WitnessesInjected >= fe.opts.MaxWitnesses {
			// Never truncate silently: the skipped count is part of the
			// result so a capped round doesn't read as a clean one.
			res.WitnessesSkipped++
			continue
		}
		res.WitnessesInjected++
		w.finding.Witness = w.update
		out, err := fe.CheckWitness(w.node, w.peer, w.update)
		if err != nil {
			return nil, err
		}
		res.PropagationSteps += out.Steps
		res.Violations = append(res.Violations, out.Violations...)
		if fe.opts.Minimize && len(out.Violations) > 0 {
			min, st, err := MinimizeWitness(fe, w.node, w.peer, w.update, out.Violations, fe.opts.MinimizeBudget)
			if err != nil {
				return nil, fmt.Errorf("federated: minimize %s/%s witness %s: %w", w.node, w.peer, w.update.NLRI[0], err)
			}
			w.finding.MinimalWitness = min
			if w.result.Minimization == nil {
				w.result.Minimization = &minimize.Stats{}
			}
			w.result.Minimization.Add(st)
		}
	}

	res.Elapsed = time.Since(start)
	return res, nil
}

// WitnessChecker re-executes one concrete witness end to end — shadow
// injection, bounded propagation, cross-node oracles, withdraw check —
// and reports what it triggered. Both federated backends implement it
// (FederatedExperiment over a COW Fabric.Shadow, dist.Coordinator over
// the shadow_open/inject_witness/query_oracle RPC sequence), which is
// what lets witness minimization re-validate candidates identically on
// either side.
type WitnessChecker interface {
	CheckWitness(node, peer string, w *bgp.Update) (*WitnessOutcome, error)
}

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

// MinimizeWitness delta-debugs one confirmed witness against a backend's
// CheckWitness, accepting a candidate only if every violation the
// original triggered still fires with the same attribution fingerprint.
// Shared by the in-process Round and the distributed coordinator so the
// two backends minimize identically.
func MinimizeWitness(ck WitnessChecker, node, peer string, w *bgp.Update, vs []FederatedViolation, budget int) (*bgp.Update, *minimize.Stats, error) {
	want := make(map[string]bool, len(vs))
	for _, v := range vs {
		want[ViolationFingerprint(v)] = true
	}
	oracle := func(cand *bgp.Update) (bool, error) {
		out, err := ck.CheckWitness(node, peer, cand)
		if err != nil {
			return false, err
		}
		return CoversFingerprints(out.Violations, want), nil
	}
	return minimize.Witness(w, oracle, minimize.Options{MaxCandidates: budget})
}

// WaveTailLen bounds the per-wave delivery counts kept on a
// persistent-oscillation violation: the tail is what distinguishes
// genuine divergence from slow convergence, so only the final waves are
// retained.
const WaveTailLen = prop.WaveTailLen

// WaveTail returns the final (up to WaveTailLen) entries of waves.
// Shared by both backends so their oscillation verdicts render — and
// compare — identically. (The logic lives in internal/prop, where the
// temporal property assertions consume the same tail.)
func WaveTail(waves []int) []int { return prop.WaveTail(waves) }

// runWaves drains the shadow network like netsim's Run(limit), but
// groups the deliveries into virtual-time waves: consecutive deliveries
// sharing one virtual timestamp are one wave. The per-wave counts feed
// the oscillation oracle's diverges-vs-converges-slowly telemetry.
func runWaves(net *netsim.Network, limit int) (steps int, waves []int) {
	var last time.Time
	for limit <= 0 || steps < limit {
		if !net.Step() {
			break
		}
		steps++
		now := net.Now()
		if len(waves) == 0 || !now.Equal(last) {
			waves = append(waves, 0)
			last = now
		}
		waves[len(waves)-1]++
	}
	return steps, waves
}

// OscillationDetail renders the bounded-propagation verdict one way for
// both backends (the parity tests compare violation strings verbatim).
func OscillationDetail(phase string, maxSteps, pending int, waves []int) string {
	return prop.OscillationDetail(phase, maxSteps, pending, waves)
}

// CheckWitness injects one concrete witness announcement into a fresh
// shadow fabric, propagates it along topology edges, collects the
// witness-attributed facts (installation, forward traces, withdraw
// cleanup), and evaluates the experiment's property set over them —
// the previously hard-coded cross-node oracles are now the built-in
// properties. Round calls it for every injected witness; witness
// minimization calls it for every candidate.
func (fe *FederatedExperiment) CheckWitness(node, peer string, w *bgp.Update) (*WitnessOutcome, error) {
	res := &WitnessOutcome{}
	facts, err := fe.collectFacts(node, peer, w)
	if err != nil {
		return nil, err
	}
	res.Steps = facts.Update.Steps + facts.Withdraw.Steps
	prefix := w.NLRI[0]
	for _, v := range prop.Evaluate(fe.props, facts) {
		res.Violations = append(res.Violations, FederatedViolation{
			Kind: v.Kind, Node: v.Node, Source: node, Peer: peer, Prefix: prefix,
			Hops: v.Hops, Detail: v.Detail, Waves: v.Waves, WaveTail: v.WaveTail,
		})
	}
	return res, nil
}

// collectFacts plays the witness lifecycle over a fresh shadow fabric
// and records what happened, without judging it: UPDATE propagation,
// which nodes installed the witness (with forward traces), WITHDRAW
// propagation, which installations survived. Collection stops early
// when a phase fails to converge — the remaining facts would be
// mid-churn noise, exactly as the original oracles returned early.
func (fe *FederatedExperiment) collectFacts(node, peer string, w *bgp.Update) (*prop.Facts, error) {
	shadow, err := fe.Fabric.Shadow()
	if err != nil {
		return nil, err
	}
	sender := shadow.Routers[peer]
	if sender == nil {
		return nil, fmt.Errorf("federated: witness peer %q missing from shadow", peer)
	}
	sess := sender.Session(node)
	if sess == nil {
		return nil, fmt.Errorf("federated: no %s→%s session for witness injection", peer, node)
	}
	prefix := w.NLRI[0]
	facts := &prop.Facts{
		Node: node, Peer: peer, Boundary: fe.boundary,
		MaxSteps: fe.opts.MaxPropagationSteps,
		Witness:  prop.NewEnv(prefix, &w.Attrs, fe.boundary),
		NodeAS: func(name string) (uint16, bool) {
			as, ok := fe.nodeAS[name]
			return as, ok
		},
	}

	// Snapshot the pre-injection best route per node. The facts must
	// attribute installations to the *witness*, not to a pre-existing
	// legitimate route for the same prefix (the witness often shares the
	// seed's prefix): a node is affected only if its best route for the
	// prefix changed when the witness propagated.
	pre := make(map[string]*rib.Route, len(shadow.Routers))
	for name, r := range shadow.Routers {
		pre[name] = r.RIB().Best(prefix)
	}

	// UPDATE propagation along topology edges.
	if err := sess.SendUpdate(w); err != nil {
		return nil, err
	}
	steps, waves := runWaves(shadow.Net, fe.opts.MaxPropagationSteps)
	facts.Update = prop.Phase{Steps: steps, Pending: shadow.Net.Pending(), Waves: waves}
	if facts.Update.Pending > 0 {
		return facts, nil
	}

	// Per-node installation facts over the converged shadow. installed
	// remembers each witness-attributed best route for the withdraw
	// check below.
	installed := make(map[string]*rib.Route)
	for _, name := range shadow.NodeNames() {
		if name == node || name == peer {
			continue
		}
		rt := shadow.Routers[name].RIB().Best(prefix)
		if rt == nil || rt == pre[name] {
			continue // witness never took hold at this node
		}
		installed[name] = rt
		terminal, hops, delivered, path := shadow.traceForward(name, prefix)
		facts.Nodes = append(facts.Nodes, prop.NodeFacts{
			Name: name, Hops: hops, Terminal: terminal, Delivered: delivered, Path: path,
			Route: prop.NewEnv(prefix, &rt.Attrs, fe.boundary),
		})
	}

	// WITHDRAW propagation: the retraction must clean the witness out of
	// every node it reached. Only witness-installed routes count — a
	// node falling back to (or keeping) a legitimate route is correct.
	if err := sess.SendUpdate(&bgp.Update{Withdrawn: []netaddr.Prefix{prefix}}); err != nil {
		return nil, err
	}
	steps, waves = runWaves(shadow.Net, fe.opts.MaxPropagationSteps)
	facts.Withdraw = prop.Phase{Steps: steps, Pending: shadow.Net.Pending(), Waves: waves}
	if facts.Withdraw.Pending > 0 {
		return facts, nil
	}
	for name, was := range installed {
		if cur := shadow.Routers[name].RIB().Best(prefix); cur != nil && cur == was {
			facts.Stale = append(facts.Stale, name)
		}
	}
	sort.Strings(facts.Stale)
	return facts, nil
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
// `never reachable via` property assertions. Both backends walk here:
// lookup reads shadow routers in-process and the post-wave query_oracle
// answers in the distributed coordinator; its error aborts the walk.
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

// traceForward is TraceForward over this fabric's routers.
func (f *Fabric) traceForward(from string, p netaddr.Prefix) (terminal string, hops int, delivered bool, path []string) {
	terminal, hops, delivered, path, _ = TraceForward(from, func(node string) (hop ForwardHop, _ error) {
		if r := f.Routers[node]; r != nil {
			if rt := r.RIB().CoveringBest(p); rt != nil {
				hop = ForwardHop{HasCovering: true, Local: rt.Local, NextPeer: r.PeerNameByAddr(rt.PeerRouterID)}
			}
		}
		return hop, nil
	})
	return terminal, hops, delivered, path
}

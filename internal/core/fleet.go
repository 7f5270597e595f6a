package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dice/internal/bgp"
	"dice/internal/minimize"
	"dice/internal/netaddr"
	"dice/internal/prop"
)

// This file is the federated round, written once. The paper's federated
// claim is that a cross-domain check needs only a narrow interface —
// explore in isolation, deliver a message, answer a route query — and
// Fleet / Shadows are that interface. Everything above it lives in
// Driver: target bookkeeping, the witness dedup / cap / minimize policy,
// shadow-set sharing and replay, the witness lifecycle (pre-query →
// UPDATE wave → attribution → forward traces → WITHDRAW wave → stale
// check) and the property evaluation. Two backends sit below it:
// FederatedExperiment (direct calls on a Fabric, federated.go) and
// dist.Coordinator (RPCs to node agents). Neither contains any of the
// algorithm, and the driver never asks which one it is driving.

// Fleet is a set of independently administered nodes, as the round
// driver sees it.
type Fleet interface {
	// Nodes lists the fleet's node names, sorted.
	Nodes() []string
	// NodeAS resolves a node name to its AS number.
	NodeAS(name string) (uint16, bool)
	// Explore runs phase 1 — per-target checkpoint, concolic exploration
	// and the scenario's local oracles — and returns one outcome per
	// target, in the order given. A target that could not be prepared
	// reports through its outcome's Err; the returned error is for
	// failures of the fleet itself.
	Explore(targets []ResolvedTarget) ([]TargetOutcome, error)
	// OpenShadows clones every node for witness propagation: an isolated
	// copy of the converged fleet that concrete messages run through
	// without perturbing the live nodes.
	OpenShadows() (Shadows, error)
}

// Shadows is one shadow copy of the fleet. The seam is at the wave, not
// the delivery: a backend runs a whole message wave to quiescence by
// whatever scheduler it has (netsim in-process, the coordinator's relay
// queue over RPC) and reports only what the wave did.
type Shadows interface {
	// Query answers, per node, the route facts about p the witness
	// lifecycle consumes. Nodes the fleet does not have are left out of
	// the answer. wantAt additionally asks for `at` predicate evidence
	// about each best route.
	Query(nodes []string, p netaddr.Prefix, wantAt bool) (map[string]RouteView, error)
	// Propagate injects u on the from→to session and runs the resulting
	// wave until nothing is in flight or maxSteps deliveries have run.
	Propagate(from, to string, u *bgp.Update, maxSteps int) (prop.Phase, error)
	// Close discards the clones.
	Close()
}

// RouteView is one node's answer about one prefix in one shadow.
type RouteView struct {
	// Token identifies the exact-prefix best route object, nil when there
	// is none. Tokens compare with ==, and only within one Shadows: a
	// re-installation — even of byte-identical content — yields a new one
	// (the *rib.Route itself in-process, the agent's route token over
	// RPC). That is how a witness-installed route is told from one that
	// was already there.
	Token any
	// Hop is the covering best route's forwarding decision.
	Hop ForwardHop
	// AtMatch is the `at` evidence about the best route, when asked for:
	// one verdict per property of the driver's set, by index (QueryRoute).
	AtMatch []bool
}

// TargetOutcome is one target's share of phase 1.
type TargetOutcome struct {
	// Result holds the local findings; the driver attaches Witness,
	// MinimalWitness and Minimization to it.
	Result *Result
	// Witnesses are the validated findings' concrete announcements, in
	// finding order, each indexing Result.Findings.
	Witnesses []WitnessRef
	// Err is why the target did not run. A *SeedUnavailableError on a
	// defaulted target skips it; anything else fails the round.
	Err error
}

// WitnessSpec names one concrete witness to check: the update, the node
// it was explored at, and the peer it arrives from.
type WitnessSpec struct {
	Node, Peer string
	Update     *bgp.Update
}

// ErrShadowLost is the one transport fact the driver knows: a Shadows
// call failed because the clones behind it are gone (an agent was
// replaced mid-witness). The witness lifecycle is deterministic, so the
// driver replays the witness on fresh shadows. Only the RPC backend
// ever returns it.
var ErrShadowLost = errors.New("shadow set lost")

// maxWitnessReplays bounds how many times one witness lifecycle is
// replayed on fresh shadows after ErrShadowLost.
const maxWitnessReplays = 2

// Driver runs federated rounds over a Fleet. It holds what a round is
// parameterised by and nothing about how the fleet is reached; both
// backends build theirs through NewDriver, so they cannot disagree on
// defaults, boundary or oracle set. The fields are read-only after
// NewDriver.
type Driver struct {
	// Opts are the caller's options with defaults applied.
	Opts FederatedOptions
	// Boundary is the topology's no-export community.
	Boundary uint32
	// Props is the merged oracle set: built-ins, the topology's
	// properties, Opts.Properties.
	Props []*prop.Compiled

	topo    *Topology
	needsAt bool // some property has an `at` clause
}

// NewDriver resolves a topology and options into a round driver.
func NewDriver(t *Topology, opts FederatedOptions) (*Driver, error) {
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
	// The topology's `properties` section plus the caller's extras, merged
	// over the built-in oracles (kinds matching a built-in replace it).
	custom, err := prop.CompileSources(slices.Concat(t.Properties, opts.Properties))
	if err != nil {
		return nil, fmt.Errorf("federated: %w", err)
	}
	d := &Driver{Opts: opts, Boundary: boundary, Props: prop.Merge(custom), topo: t}
	for _, p := range d.Props {
		d.needsAt = d.needsAt || p.HasAt()
	}
	return d, nil
}

// Round runs one federated round over f: phase 1 on the fleet, then
// cross-node propagation of the deduplicated, capped witnesses and the
// property set over what each one did.
func (d *Driver) Round(f Fleet) (*FederatedResult, error) {
	start := time.Now()
	targets := d.topo.ResolveTargets(d.Opts.DefaultScenario)
	outs, err := f.Explore(targets)
	if err != nil {
		return nil, err
	}

	// Targets report in resolution order whether they ran or skipped.
	// Each kept witness remembers its finding and result, so per-witness
	// artifacts land back on the right one.
	type witness struct {
		WitnessSpec
		finding *Finding
		result  *Result
	}
	res := &FederatedResult{Targets: make([]FederatedTargetResult, len(targets))}
	var witnesses []witness
	seen := map[string]bool{}
	for i, tg := range targets {
		tr := &res.Targets[i]
		*tr = FederatedTargetResult{Node: tg.Node, Peer: tg.Peer, Scenario: tg.Scenario}
		out := outs[i]
		if out.Err != nil {
			var seedErr *SeedUnavailableError
			if errors.As(out.Err, &seedErr) && !tg.Explicit {
				// Defaulted target with nothing observed yet: skip, visibly.
				tr.Err = seedErr.Err
				continue
			}
			return nil, fmt.Errorf("federated: %s/%s: %w", tg.Node, tg.Peer, out.Err)
		}
		tr.Result = out.Result
		for _, wr := range out.Witnesses {
			key := WitnessKey(tg.Node, tg.Peer, wr.Update)
			if seen[key] {
				continue
			}
			seen[key] = true
			if len(witnesses) >= d.Opts.MaxWitnesses {
				// Never truncate silently: the skipped count is part of the
				// result so a capped round doesn't read as a clean one.
				res.WitnessesSkipped++
				continue
			}
			witnesses = append(witnesses, witness{
				WitnessSpec: WitnessSpec{Node: tg.Node, Peer: tg.Peer, Update: wr.Update},
				finding:     &out.Result.Findings[wr.Finding], result: out.Result,
			})
		}
	}

	res.WitnessesInjected = len(witnesses)
	specs := make([]WitnessSpec, len(witnesses))
	for i, w := range witnesses {
		specs[i] = w.WitnessSpec
		w.finding.Witness = w.Update
	}
	outcomes, err := d.CheckWitnesses(f, specs)
	if err != nil {
		return nil, err
	}
	for i, w := range witnesses {
		out := outcomes[i]
		res.PropagationSteps += out.Steps
		res.Violations = append(res.Violations, out.Violations...)
		if !d.Opts.Minimize || len(out.Violations) == 0 {
			continue
		}
		check := func(cand *bgp.Update) (*WitnessOutcome, error) {
			return d.CheckWitness(f, WitnessSpec{Node: w.Node, Peer: w.Peer, Update: cand})
		}
		min, st, err := MinimizeWitness(check, w.Update, out.Violations, d.Opts.MinimizeBudget)
		if err != nil {
			return nil, fmt.Errorf("federated: minimize %s/%s witness %s: %w", w.Node, w.Peer, w.Update.NLRI[0], err)
		}
		w.finding.MinimalWitness = min
		if w.result.Minimization == nil {
			w.result.Minimization = &minimize.Stats{}
		}
		w.result.Minimization.Add(st)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// CheckWitness re-executes one concrete witness end to end on fresh
// shadows — injection, bounded propagation, the property set, withdraw
// check — and reports what it triggered. Witness minimization calls it
// for every candidate. A lost shadow set replays the lifecycle in full;
// the partial run's steps are discarded, so step totals match a
// fault-free run.
func (d *Driver) CheckWitness(f Fleet, w WitnessSpec) (*WitnessOutcome, error) {
	var lastErr error
	for attempt := 0; attempt <= maxWitnessReplays; attempt++ {
		sh, err := f.OpenShadows()
		if err != nil {
			return nil, err
		}
		out, _, err := d.checkWitnessIn(f, sh, w)
		sh.Close()
		if err == nil {
			return out, nil
		}
		if !errors.Is(err, ErrShadowLost) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// CheckWitnesses checks a sequence of witnesses in order, each with
// exactly the semantics of CheckWitness, but amortizing shadow
// lifecycle: consecutive witnesses whose prefix footprints are pairwise
// disjoint share one shadow set. Disjointness is what makes sharing
// sound — BGP decisions are per-prefix, every witness's full
// UPDATE→oracles→WITHDRAW lifecycle runs contiguously, and any residue
// one witness leaves (stale routes, withdrawn paths) lives entirely
// under prefixes the later witnesses never look at. A witness that fails
// to converge leaves its set mid-churn, so the set is retired and the
// rest of the group gets a fresh one; so does the rest of a group whose
// set was lost, after the witness that lost it replayed alone.
func (d *Driver) CheckWitnesses(f Fleet, specs []WitnessSpec) ([]*WitnessOutcome, error) {
	outs := make([]*WitnessOutcome, 0, len(specs))
	for i := 0; i < len(specs); {
		// Grow the group while the next witness's prefixes stay disjoint
		// from everything already in it.
		footprint := slices.Clone(specs[i].Update.NLRI)
		j := i + 1
		for ; j < len(specs) && disjoint(footprint, specs[j].Update.NLRI); j++ {
			footprint = append(footprint, specs[j].Update.NLRI...)
		}
		var sh Shadows // nil between sets
		for _, w := range specs[i:j] {
			if sh == nil {
				var err error
				if sh, err = f.OpenShadows(); err != nil {
					return nil, err
				}
			}
			out, dirty, err := d.checkWitnessIn(f, sh, w)
			if errors.Is(err, ErrShadowLost) {
				sh.Close()
				sh = nil
				out, err = d.CheckWitness(f, w)
			}
			if err != nil {
				if sh != nil {
					sh.Close()
				}
				return nil, err
			}
			outs = append(outs, out)
			if dirty {
				sh.Close()
				sh = nil
			}
		}
		if sh != nil {
			sh.Close()
		}
		i = j
	}
	return outs, nil
}

// disjoint reports whether no prefix of a overlaps any prefix of b.
func disjoint(a, b []netaddr.Prefix) bool {
	for _, p := range a {
		for _, q := range b {
			if p.Overlaps(q) {
				return false
			}
		}
	}
	return true
}

// checkWitnessIn runs one witness lifecycle inside an open shadow set
// and judges it: the collected facts go through prop.Evaluate, which is
// the entire oracle logic. dirty reports that the set absorbed a
// non-converging wave and must not host further witnesses.
func (d *Driver) checkWitnessIn(f Fleet, sh Shadows, w WitnessSpec) (_ *WitnessOutcome, dirty bool, _ error) {
	facts, err := d.CollectFacts(f, sh, w)
	if err != nil {
		return nil, false, err
	}
	out := &WitnessOutcome{Steps: facts.Update.Steps + facts.Withdraw.Steps}
	prefix := w.Update.NLRI[0]
	for _, v := range prop.Evaluate(d.Props, facts) {
		out.Violations = append(out.Violations, FederatedViolation{
			Kind: v.Kind, Node: v.Node, Source: w.Node, Peer: w.Peer, Prefix: prefix,
			Hops: v.Hops, Detail: v.Detail, Waves: v.Waves, WaveTail: v.WaveTail,
		})
	}
	return out, facts.Update.Pending > 0 || facts.Withdraw.Pending > 0, nil
}

// CollectFacts plays the witness lifecycle over sh and records what
// happened, without judging it: UPDATE propagation, which nodes
// installed the witness (with forward traces), WITHDRAW propagation,
// which installations survived. Collection stops early when a phase
// fails to converge — the remaining facts would be mid-churn noise.
//
// Every node is asked at most once per phase. The explored node and the
// sending peer are excluded from every oracle, so they are asked only
// if a forward trace reaches them.
func (d *Driver) CollectFacts(f Fleet, sh Shadows, w WitnessSpec) (*prop.Facts, error) {
	prefix := w.Update.NLRI[0]
	maxSteps := d.Opts.MaxPropagationSteps
	facts := &prop.Facts{
		Node: w.Node, Peer: w.Peer, Boundary: d.Boundary, MaxSteps: maxSteps,
		Witness: prop.NewEnv(prefix, &w.Update.Attrs, d.Boundary),
		NodeAS:  f.NodeAS,
	}
	nodes := f.Nodes()
	others := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n != w.Node && n != w.Peer {
			others = append(others, n)
		}
	}

	// Pre-injection best routes. The facts must attribute installations
	// to the *witness*, not to a pre-existing legitimate route for the
	// same prefix (the witness often shares the seed's prefix): a node is
	// affected only if its best route changed when the witness propagated.
	pre, err := sh.Query(others, prefix, false)
	if err != nil {
		return nil, err
	}

	// UPDATE wave.
	if facts.Update, err = sh.Propagate(w.Peer, w.Node, w.Update, maxSteps); err != nil {
		return nil, err
	}
	if facts.Update.Pending > 0 {
		return facts, nil
	}

	// Per-node installation facts over the converged shadows, in sorted
	// node order so the facts — and the violations derived from them —
	// come out deterministically. Forward traces walk the same answer
	// set: the shadows have not moved since the query.
	post, err := sh.Query(others, prefix, d.needsAt)
	if err != nil {
		return nil, err
	}
	lookup := func(name string) (ForwardHop, error) {
		v, asked := post[name]
		if !asked {
			one, err := sh.Query([]string{name}, prefix, false)
			if err != nil {
				return ForwardHop{}, err
			}
			v = one[name] // zero — no covering route — for a node the fleet lacks
			post[name] = v
		}
		return v.Hop, nil
	}
	var reached []string // witness-installed nodes, sorted
	var installed []any  // their best-route tokens
	for _, name := range others {
		v := post[name]
		if v.Token == nil || v.Token == pre[name].Token {
			continue // witness never took hold at this node
		}
		reached = append(reached, name)
		installed = append(installed, v.Token)
		terminal, hops, delivered, path, err := TraceForward(name, lookup)
		if err != nil {
			return nil, err
		}
		facts.Nodes = append(facts.Nodes, prop.NodeFacts{
			Name: name, Hops: hops, Terminal: terminal, Delivered: delivered, Path: path,
			AtMatch: v.AtMatch,
		})
	}

	// WITHDRAW wave: the retraction must clean the witness out of every
	// node it reached. Only witness-installed routes count — a node
	// falling back to (or keeping) a legitimate route is correct.
	withdraw := &bgp.Update{Withdrawn: []netaddr.Prefix{prefix}}
	if facts.Withdraw, err = sh.Propagate(w.Peer, w.Node, withdraw, maxSteps); err != nil {
		return nil, err
	}
	if facts.Withdraw.Pending > 0 {
		return facts, nil
	}
	after, err := sh.Query(reached, prefix, false)
	if err != nil {
		return nil, err
	}
	for i, name := range reached {
		if after[name].Token == installed[i] {
			facts.Stale = append(facts.Stale, name)
		}
	}
	return facts, nil
}

package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"dice/internal/bgp"
	"dice/internal/minimize"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/prop"
)

// This file is the federated round, written once. The paper's federated
// claim is that a cross-domain check needs only a narrow interface —
// explore in isolation, deliver a message, answer a route query — and
// Fleet / Shadows are that interface. Everything above it lives in
// Driver: target bookkeeping, the witness dedup / cap / minimize policy,
// disjoint-prefix grouping, the solo fallback and replay, the witness
// lifecycle (UPDATE wave → attribution → forward traces → WITHDRAW wave →
// stale check, a whole group at a time) and the property evaluation. Two
// backends sit below it: FederatedExperiment (direct calls on a Fabric,
// federated.go) and dist.Coordinator (RPCs to node agents). Neither
// contains any of the algorithm, and the driver never asks which one it
// is driving.

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
	// OpenShadows starts a shadow set for witness propagation: an
	// isolated copy of the converged fleet that concrete messages run
	// through without perturbing the live nodes. Both backends clone a
	// node (OpenShadow) on the set's first call to it; a clone lost since
	// surfaces as ErrShadowLost.
	OpenShadows() Shadows
}

// Shadows is one shadow copy of the fleet. The seam is at the wave, not
// the delivery: a backend runs the message waves of a whole
// disjoint-prefix witness group to quiescence — both backends through a
// Relay, each executing its steps its own way — and reports what each
// wave did, including what it changed, so the driver polls nobody before
// or after.
type Shadows interface {
	// Query answers one node's route facts about p: the forward trace's
	// lookup for a hop no wave touched. A node the fleet does not have
	// answers the zero view (no covering route).
	Query(node string, p netaddr.Prefix) (RouteView, error)
	// Propagate runs one wave per injection, all of them together, each
	// until nothing of it is in flight or maxSteps of its deliveries have
	// run, and returns the waves in injection order. The injections'
	// prefixes are pairwise disjoint, so the waves cannot see each other
	// and each reads exactly as if it had run alone. A wave that ends with
	// deliveries pending leaves the set mid-churn: the waves beside it are
	// not to be trusted, and the caller discards the set. wantAt asks for
	// `at` predicate evidence in every RouteChange.After.
	Propagate(group []Injection, maxSteps int, wantAt bool) ([]Wave, error)
	// Close discards the clones.
	Close()
}

// Injection starts one wave: u arrives at To as if From had sent it.
// Watch is the prefix the wave is about — the one its RouteChanges report.
type Injection struct {
	From, To string
	Update   *bgp.Update
	Watch    netaddr.Prefix
}

// Wave is what one injection did to the shadows: the propagation
// telemetry, and per node how its route for the watched prefix changed.
// Touched is indexed like Fleet.Nodes(); a node none of the wave's
// deliveries reached reads Seen false and has, by construction, not
// changed. Touched belongs to the Shadows: it is valid until their next
// Propagate or Close.
type Wave struct {
	prop.Phase
	Touched []RouteChange
}

// churning reports a wave that hit its step budget with deliveries pending.
func (w Wave) churning() bool { return w.Pending > 0 }

// RouteChange brackets one node's share of a wave: whether the wave
// reached the node, and if so the watched prefix's best-route token
// before the node's first delivery of the wave (0 for none) and the
// node's view after its last.
type RouteChange struct {
	Seen   bool
	Before uint64
	After  RouteView
}

// RouteView is one node's answer about one prefix in one shadow.
type RouteView struct {
	// Token identifies the exact-prefix best route object, 0 when there
	// is none. Tokens are the node's shadow's (NodeShadow), so they compare
	// only within one node of one Shadows: a re-installation — even of
	// byte-identical content — yields a new one. That is how a
	// witness-installed route is told from one that was already there.
	Token uint64
	// Hop is the covering best route's forwarding decision.
	Hop ForwardHop
	// AtMatch is the `at` evidence about the best route, when a wave was
	// asked for it: one verdict per property of the driver's set, by index
	// (NodeShadow.Query). Shadows.Query never fills it.
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
	needsAt bool           // some property has an `at` clause
	links   *netsim.Links  // the topology's links, for every Relay
	index   map[string]int // node name → index into the sorted node names

	relayMu sync.Mutex
	relays  []*Relay // released by the round's closed shadow sets (ReleaseRelay)
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
	d := &Driver{Opts: opts, Boundary: boundary, Props: prop.Merge(custom), topo: t, links: &netsim.Links{}}
	if err := t.Link(d.links); err != nil {
		return nil, fmt.Errorf("federated: %w", err)
	}
	names := make([]string, len(t.Nodes))
	for i, n := range t.Nodes {
		names[i] = n.Name
	}
	slices.Sort(names)
	d.index = make(map[string]int, len(names))
	for i, name := range names {
		d.index[name] = i
	}
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
	defer d.dropRelays()
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
	mins := make([]*bgp.Update, len(witnesses))
	stats := make([]*minimize.Stats, len(witnesses))
	if d.Opts.Minimize {
		// Every candidate check opens shadows of its own, so witnesses
		// minimize on the group pool. Their stats are merged below, in
		// witness order: two witnesses of one target add to one result.
		err := d.parallel(len(witnesses), func(i int) error {
			w, vs := witnesses[i], outcomes[i].Violations
			if len(vs) == 0 {
				return nil
			}
			check := func(cand *bgp.Update) (*WitnessOutcome, error) {
				return d.CheckWitness(f, WitnessSpec{Node: w.Node, Peer: w.Peer, Update: cand})
			}
			var err error
			if mins[i], stats[i], err = MinimizeWitness(check, w.Update, vs, d.Opts.MinimizeBudget); err != nil {
				return fmt.Errorf("federated: minimize %s/%s witness %s: %w", w.Node, w.Peer, w.Update.NLRI[0], err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	total := 0
	for _, out := range outcomes {
		total += len(out.Violations)
	}
	res.Violations = slices.Grow(res.Violations, total)
	for i, w := range witnesses {
		out := outcomes[i]
		res.PropagationSteps += out.Steps
		res.Violations = append(res.Violations, out.Violations...)
		if stats[i] == nil {
			continue
		}
		w.finding.MinimalWitness = mins[i]
		if w.result.Minimization == nil {
			w.result.Minimization = &minimize.Stats{}
		}
		w.result.Minimization.Add(stats[i])
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// CheckWitness re-executes one concrete witness end to end on fresh
// shadows — injection, bounded propagation, the property set, withdraw
// check — and reports what it triggered: a group of one. Witness
// minimization calls it for every candidate. A lost shadow set replays
// the lifecycle in full; the partial run's steps are discarded, so step
// totals match a fault-free run.
func (d *Driver) CheckWitness(f Fleet, w WitnessSpec) (*WitnessOutcome, error) {
	var err error
	for attempt := 0; attempt <= maxWitnessReplays; attempt++ {
		var outs []*WitnessOutcome
		if outs, err = d.checkGroup(f, []WitnessSpec{w}); err == nil {
			return outs[0], nil
		}
		if !errors.Is(err, ErrShadowLost) {
			return nil, err
		}
	}
	return nil, err
}

// CheckWitnesses checks a sequence of witnesses, each with exactly the
// semantics of CheckWitness and reported in the order given, a group at a
// time: witnesses whose prefix footprints are pairwise disjoint share one
// shadow set and one wave. Disjointness is what makes sharing sound — BGP
// decisions are per-prefix, so the members' deliveries interleave without
// seeing each other, and any residue one leaves (stale routes, withdrawn
// paths) lives entirely under prefixes the others never look at. When a
// member fails to converge, or the set is lost, the merged attempt is
// discarded whole and each member runs alone through CheckWitness: the
// rare path stays the audited one.
//
// Up to Opts.Workers groups are checked at once (parallel). Concurrency
// cannot move a result: each group has its own shadows, relay and capture
// sink, and every outcome is written at its witness's index. On a hard
// error no further group starts, the running ones finish and close their
// shadows, and the error is the lowest-index failed group's.
func (d *Driver) CheckWitnesses(f Fleet, specs []WitnessSpec) ([]*WitnessOutcome, error) {
	// First fit: a witness joins the first group whose footprint its
	// prefixes are disjoint from, so the groups come out as few and as
	// wide as the prefixes allow whatever order the witnesses arrive in.
	var (
		groups     [][]int            // indices into specs, ascending
		footprints [][]netaddr.Prefix // each group's prefixes
	)
	for i, w := range specs {
		g := 0
		for g < len(groups) && !disjoint(footprints[g], w.Update.NLRI) {
			g++
		}
		if g == len(groups) {
			groups, footprints = append(groups, nil), append(footprints, nil)
		}
		groups[g] = append(groups[g], i)
		footprints[g] = append(footprints[g], w.Update.NLRI...)
	}
	outs := make([]*WitnessOutcome, len(specs))
	err := d.parallel(len(groups), func(g int) error {
		members := make([]WitnessSpec, len(groups[g]))
		for k, i := range groups[g] {
			members[k] = specs[i]
		}
		got, err := d.checkGroup(f, members)
		if errors.Is(err, ErrShadowLost) || errors.Is(err, errGroupChurn) {
			got = make([]*WitnessOutcome, len(members))
			for k, w := range members {
				if got[k], err = d.CheckWitness(f, w); err != nil {
					return err
				}
			}
		} else if err != nil {
			return err
		}
		for k, i := range groups[g] {
			outs[i] = got[k]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// parallel runs fn(0) … fn(n-1) on a pool of up to Opts.Workers
// goroutines (the caller's among them) that take indices in ascending
// order. Once an fn fails no further index is taken; the ones running
// finish, and parallel returns the lowest failed index's error — the one
// a sequential loop would have returned, since every lower index was
// taken before it.
func (d *Driver) parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var (
		mu     sync.Mutex
		next   int
		failed bool
	)
	work := func() {
		for {
			mu.Lock()
			i := next
			if failed || i == n {
				mu.Unlock()
				return
			}
			next++
			mu.Unlock()
			if errs[i] = fn(i); errs[i] != nil {
				mu.Lock()
				failed = true
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for range min(max(d.Opts.Workers, 1), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// errGroupChurn reports a merged group one of whose members did not
// converge: the set is mid-churn, so nothing collected beside that member
// can be trusted.
var errGroupChurn = errors.New("federated: a group member did not converge")

// checkGroup runs one group's lifecycle on a fresh shadow set and judges
// each member: the collected facts go through prop.Evaluate, which is the
// entire oracle logic. The set never hosts a second group, so a
// non-converging wave retires it by construction.
func (d *Driver) checkGroup(f Fleet, group []WitnessSpec) ([]*WitnessOutcome, error) {
	sh := f.OpenShadows()
	defer sh.Close()
	facts, err := d.CollectFacts(f, sh, group)
	if err != nil {
		return nil, err
	}
	outs := make([]*WitnessOutcome, len(group))
	for i, w := range group {
		fa := facts[i]
		if len(group) > 1 && fa.Update.Pending+fa.Withdraw.Pending > 0 {
			return nil, errGroupChurn
		}
		vs := prop.Evaluate(d.Props, fa)
		out := &WitnessOutcome{Steps: fa.Update.Steps + fa.Withdraw.Steps}
		if len(vs) > 0 {
			out.Violations = make([]FederatedViolation, 0, len(vs))
		}
		for _, v := range vs {
			out.Violations = append(out.Violations, FederatedViolation{
				Kind: v.Kind, Node: v.Node, Source: w.Node, Peer: w.Peer, Prefix: w.Update.NLRI[0],
				Hops: v.Hops, Detail: v.Detail, Waves: v.Waves, WaveTail: v.WaveTail,
			})
		}
		outs[i] = out
	}
	return outs, nil
}

// CollectFacts plays a disjoint-prefix group's witness lifecycle over sh
// and records, per member, what happened, without judging it: the UPDATE
// waves, which nodes installed each witness (with forward traces), the
// WITHDRAW waves, which installations survived. Collection stops early
// when a wave fails to converge — the remaining facts would be mid-churn
// noise.
//
// No node is polled before or between the waves: a wave reports the
// before / after of every node it touched, and an untouched node has not
// changed. Only a forward trace that walks into an untouched node asks —
// once — through Shadows.Query.
func (d *Driver) CollectFacts(f Fleet, sh Shadows, group []WitnessSpec) ([]*prop.Facts, error) {
	maxSteps := d.Opts.MaxPropagationSteps
	facts := make([]*prop.Facts, len(group))
	inject := make([]Injection, len(group))
	for i, w := range group {
		prefix := w.Update.NLRI[0]
		facts[i] = &prop.Facts{
			Node: w.Node, Peer: w.Peer, Boundary: d.Boundary, MaxSteps: maxSteps,
			Witness: prop.NewEnv(prefix, &w.Update.Attrs, d.Boundary),
			NodeAS:  f.NodeAS,
		}
		inject[i] = Injection{From: w.Peer, To: w.Node, Update: w.Update, Watch: prefix}
	}

	// UPDATE waves.
	waves, err := sh.Propagate(inject, maxSteps, d.needsAt)
	if err != nil {
		return nil, err
	}
	for i := range group {
		facts[i].Update = waves[i].Phase
	}
	if slices.ContainsFunc(waves, Wave.churning) {
		return facts, nil
	}

	// Per-node installation facts over the converged shadows, in sorted
	// node order so the facts — and the violations derived from them —
	// come out deterministically. The facts must attribute installations
	// to the *witness*, not to a pre-existing legitimate route for the same
	// prefix (the witness often shares the seed's prefix): a node is
	// affected only if its best route changed while the wave ran. The
	// explored node and the sending peer are excluded from every oracle.
	nodes := f.Nodes()
	reached := make([][]string, len(group)) // witness-installed nodes, sorted
	var free []string                       // room for the next forward trace's path
	for i, w := range group {
		touched := waves[i].Touched
		lookup := func(name string) (ForwardHop, error) {
			k, known := slices.BinarySearch(nodes, name)
			if known && touched[k].Seen {
				return touched[k].After.Hop, nil
			}
			v, err := sh.Query(name, inject[i].Watch)
			if err != nil || !known {
				return v.Hop, err
			}
			touched[k] = RouteChange{Seen: true, Before: v.Token, After: v} // asked once; unchanged
			return v.Hop, nil
		}
		for k, name := range nodes {
			ch := touched[k]
			if name == w.Node || name == w.Peer || ch.After.Token == 0 || ch.After.Token == ch.Before {
				continue // excluded, or the witness never took hold here
			}
			reached[i] = append(reached[i], name)
			if cap(free) < 8 {
				free = make([]string, 0, 128) // the paths of many traces, back to back
			}
			terminal, hops, delivered, path, err := TraceForward(free, name, lookup)
			if err != nil {
				return nil, err
			}
			path, free = slices.Clip(path), path[len(path):]
			facts[i].Nodes = append(facts[i].Nodes, prop.NodeFacts{
				Name: name, Hops: hops, Terminal: terminal, Delivered: delivered, Path: path,
				AtMatch: ch.After.AtMatch,
			})
		}
		inject[i].Update = &bgp.Update{Withdrawn: []netaddr.Prefix{inject[i].Watch}}
	}

	// WITHDRAW waves: the retraction must clean the witness out of every
	// node it reached. Only witness-installed routes count — a node
	// falling back to (or keeping) a legitimate route is correct — and a
	// node the retraction never touched still holds what it installed. A
	// reached node's Before in its WITHDRAW wave is the token it
	// installed (only its own deliveries move its route for the prefix),
	// so a route the wave left in place reads After == Before.
	if waves, err = sh.Propagate(inject, maxSteps, false); err != nil {
		return nil, err
	}
	for i := range group {
		facts[i].Withdraw = waves[i].Phase
	}
	if slices.ContainsFunc(waves, Wave.churning) {
		return facts, nil
	}
	for i := range group {
		for _, name := range reached[i] {
			k, _ := slices.BinarySearch(nodes, name)
			if ch := waves[i].Touched[k]; !ch.Seen || ch.After.Token == ch.Before {
				facts[i].Stale = append(facts[i].Stale, name)
			}
		}
	}
	return facts, nil
}

package topo

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"dice/internal/core"
)

// Relationship classifies one directed edge end from a node's point of
// view: what the neighbor is to me.
type Relationship int

// Edge relationships (from the owning node's perspective).
const (
	RelNone     Relationship = iota
	RelCustomer              // neighbor buys transit from me
	RelProvider              // I buy transit from the neighbor
	RelPeer                  // settlement-free peering
)

func (r Relationship) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelProvider:
		return "provider"
	case RelPeer:
		return "peer"
	}
	return "none"
}

// RelationshipAS is the community AS used to tag where a route was
// learned; the values are the Relationship constants. 64800 sits in the
// private range and collides with neither generated ASNs nor the
// RFC 1997 NO_EXPORT boundary the leak oracle watches.
const RelationshipAS = 64800

// Spec parameterizes a generated AS topology. The zero value of every
// optional field selects a scale-appropriate default; Seed and Nodes are
// the identity of the topology — equal Specs generate byte-identical
// topologies.
type Spec struct {
	Seed  int64
	Nodes int // total AS count, MinNodes..MaxNodes

	// CoreSize is the tier-1 clique size (0 = 4 below 2000 nodes, 8 at
	// or above).
	CoreSize int
	// TransitFrac is the fraction of non-core nodes acting as tier-2
	// transits (0 = 0.2).
	TransitFrac float64
	// ExploreTargets is how many provider→customer routeleak targets to
	// emit (0 = 4, capped by the number of transits).
	ExploreTargets int
	// PolicyClauses adds that many extra prefix-guard clauses (each over
	// a distinct /16 of the generated network space) ahead of the
	// catch-all in every in_customer filter, 0..32. Each clause is one
	// more branch the concolic engine explores per target — the knob that
	// sizes per-target work (dice -asgen-clauses).
	PolicyClauses int
}

// Generated node count bounds. The floor keeps all three tiers populated;
// the ceiling is the 10k-node scale TestGenerateAtScale holds valid.
const (
	MinNodes = 8
	MaxNodes = 10000
)

// Layout records the tier assignment and edge relationships behind a
// generated topology, for tests and tooling; the topology itself only
// carries the compiled configs.
type Layout struct {
	Core    []string // tier-1 node names
	Transit []string // tier-2
	Stub    []string // tier-3
	// Rel[node][neighbor] is the neighbor's relationship to node.
	Rel map[string]map[string]Relationship
}

// Tier returns which tier a node belongs to (1, 2 or 3), or 0 if the
// node is unknown.
func (l *Layout) Tier(node string) int {
	for _, n := range l.Core {
		if n == node {
			return 1
		}
	}
	for _, n := range l.Transit {
		if n == node {
			return 2
		}
	}
	for _, n := range l.Stub {
		if n == node {
			return 3
		}
	}
	return 0
}

// asNode is the construction-time view of one AS.
type asNode struct {
	idx  int
	asn  int
	name string
	rid  string // router id, also the peering address neighbors dial
	pfx  string // originated network
}

func makeNode(i int) asNode {
	// Router ids live in 10.[40,79].x.1, originated networks in
	// 10.[80,119].x.0/24 — disjoint spans, so a generated filter over
	// the network space never matches a peering address.
	return asNode{
		idx:  i,
		asn:  1000 + i,
		name: fmt.Sprintf("as%d", 1000+i),
		rid:  fmt.Sprintf("10.%d.%d.1", 40+i/256, i%256),
		pfx:  fmt.Sprintf("10.%d.%d.0/24", 80+i/256, i%256),
	}
}

// Generate builds a deterministic three-tier AS topology from spec. The
// returned Layout describes the tier assignment and per-edge
// relationships the compiled policies implement.
func Generate(spec Spec) (*core.Topology, *Layout, error) {
	if spec.Nodes < MinNodes || spec.Nodes > MaxNodes {
		return nil, nil, fmt.Errorf("topo: %d nodes outside [%d, %d]", spec.Nodes, MinNodes, MaxNodes)
	}
	coreSize := spec.CoreSize
	if coreSize == 0 {
		coreSize = 4
		if spec.Nodes >= 2000 {
			coreSize = 8
		}
	}
	if coreSize < 2 || coreSize >= spec.Nodes {
		return nil, nil, fmt.Errorf("topo: core size %d for %d nodes", coreSize, spec.Nodes)
	}
	frac := spec.TransitFrac
	if frac == 0 {
		frac = 0.2
	}
	if frac < 0 || frac > 1 {
		return nil, nil, fmt.Errorf("topo: transit fraction %v outside [0, 1]", frac)
	}
	if spec.PolicyClauses < 0 || spec.PolicyClauses > 32 {
		return nil, nil, fmt.Errorf("topo: %d policy clauses outside [0, 32]", spec.PolicyClauses)
	}
	nTransit := int(float64(spec.Nodes-coreSize) * frac)
	if nTransit < 1 {
		nTransit = 1
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	nodes := make([]asNode, spec.Nodes)
	for i := range nodes {
		nodes[i] = makeNode(i)
	}
	lay := &Layout{Rel: make(map[string]map[string]Relationship, spec.Nodes)}
	rel := func(a, b asNode, ab Relationship) {
		// Record b's relationship to a and the inverse for b.
		ba := ab
		switch ab {
		case RelCustomer:
			ba = RelProvider
		case RelProvider:
			ba = RelCustomer
		}
		if lay.Rel[a.name] == nil {
			lay.Rel[a.name] = make(map[string]Relationship)
		}
		if lay.Rel[b.name] == nil {
			lay.Rel[b.name] = make(map[string]Relationship)
		}
		lay.Rel[a.name][b.name] = ab
		lay.Rel[b.name][a.name] = ba
	}

	var edges []core.TopoEdge
	addEdge := func(a, b asNode, r Relationship) {
		// r is b's relationship to a (RelCustomer: b buys from a).
		rel(a, b, r)
		edges = append(edges, core.TopoEdge{A: a.name, B: b.name, LatencyMS: 1 + rng.Intn(4)})
	}

	// Tier 1: full peering clique.
	tier1 := nodes[:coreSize]
	for i := range tier1 {
		lay.Core = append(lay.Core, tier1[i].name)
		for j := i + 1; j < len(tier1); j++ {
			addEdge(tier1[i], tier1[j], RelPeer)
		}
	}
	// Tier 2: transits buy from one or two core ASes, occasionally
	// peering with an earlier transit.
	tier2 := nodes[coreSize : coreSize+nTransit]
	for i := range tier2 {
		t := tier2[i]
		lay.Transit = append(lay.Transit, t.name)
		first := rng.Intn(coreSize)
		addEdge(tier1[first], t, RelCustomer)
		if coreSize > 1 && rng.Intn(2) == 1 {
			second := rng.Intn(coreSize - 1)
			if second >= first {
				second++
			}
			addEdge(tier1[second], t, RelCustomer)
		}
		if i > 0 && rng.Float64() < 0.3 {
			addEdge(tier2[rng.Intn(i)], t, RelPeer)
		}
	}
	// Tier 3: stubs buy from one or two transits.
	for _, s := range nodes[coreSize+nTransit:] {
		lay.Stub = append(lay.Stub, s.name)
		first := rng.Intn(nTransit)
		addEdge(tier2[first], s, RelCustomer)
		if nTransit > 1 && rng.Intn(3) == 0 {
			second := rng.Intn(nTransit - 1)
			if second >= first {
				second++
			}
			addEdge(tier2[second], s, RelCustomer)
		}
	}

	byName := make(map[string]asNode, len(nodes))
	for _, n := range nodes {
		byName[n.name] = n
	}
	topoNodes := make([]core.TopoNode, len(nodes))
	for i, n := range nodes {
		topoNodes[i] = core.TopoNode{Name: n.name, Config: nodeConfig(n, byName, lay.Rel[n.name], spec.PolicyClauses)}
	}

	// Explore targets: provider-side routeleak exploration of customer
	// edges, one per transit, in deterministic tier order.
	nTargets := spec.ExploreTargets
	if nTargets == 0 {
		nTargets = 4
	}
	var explore []core.ExploreTarget
	for _, tn := range lay.Transit {
		if len(explore) >= nTargets {
			break
		}
		if c := firstCustomer(lay.Rel[tn], byName); c != "" {
			explore = append(explore, core.ExploreTarget{Node: tn, Peer: c, Scenario: core.ScenarioRouteLeak})
		}
	}

	t := &core.Topology{
		Name:    fmt.Sprintf("asgen-%d-seed%d", spec.Nodes, spec.Seed),
		Nodes:   topoNodes,
		Edges:   edges,
		Explore: explore,
	}
	return t, lay, nil
}

// firstCustomer returns the lowest-indexed customer neighbor, or "".
func firstCustomer(rels map[string]Relationship, byName map[string]asNode) string {
	best := ""
	for nb, r := range rels {
		if r != RelCustomer {
			continue
		}
		if best == "" || byName[nb].idx < byName[best].idx {
			best = nb
		}
	}
	return best
}

// nodeConfig compiles one AS's policy to the BIRD-style config grammar.
// Import filters tag the relationship community; export filters enforce
// the Gao–Rexford conditions: everything to customers, only
// customer-learned routes (and local networks, which carry no tags) to
// peers and providers.
func nodeConfig(n asNode, byName map[string]asNode, rels map[string]Relationship, clauses int) []string {
	cfg := []string{
		fmt.Sprintf("router id %s;", n.rid),
		fmt.Sprintf("local as %d;", n.asn),
		fmt.Sprintf("network %s;", n.pfx),
	}
	used := map[Relationship]bool{}
	hasCustomer := false
	for _, r := range rels {
		used[r] = true
		if r == RelCustomer {
			hasCustomer = true
		}
	}
	if used[RelCustomer] {
		// Customers may only announce the generated network space; the
		// prefix guards are also the branches the leak scenario explores.
		// The optional extra clauses each cover one /16 of that space and
		// tag which clause admitted the route, so every clause is a
		// distinct reachable path for the concolic engine.
		cfg = append(cfg, "filter in_customer {")
		for j := 0; j < clauses; j++ {
			cfg = append(cfg,
				fmt.Sprintf("    if net ~ 10.%d.0.0/16{17,24} then {", 80+j),
				fmt.Sprintf("        add community (%d,%d);", RelationshipAS, RelCustomer),
				fmt.Sprintf("        add community (%d,%d);", RelationshipAS+1, j),
				"        accept;",
				"    }",
			)
		}
		cfg = append(cfg,
			"    if net ~ 10.0.0.0/8{9,30} then {",
			fmt.Sprintf("        add community (%d,%d);", RelationshipAS, RelCustomer),
			"        accept;",
			"    }",
			"    reject;",
			"}",
		)
	}
	if used[RelPeer] {
		cfg = append(cfg,
			"filter in_peer {",
			fmt.Sprintf("    add community (%d,%d);", RelationshipAS, RelPeer),
			"    accept;",
			"}",
		)
	}
	if used[RelProvider] {
		cfg = append(cfg,
			"filter in_provider {",
			fmt.Sprintf("    add community (%d,%d);", RelationshipAS, RelProvider),
			"    accept;",
			"}",
		)
	}
	if hasCustomer {
		cfg = append(cfg,
			"filter out_customer {",
			"    accept;",
			"}",
		)
	}
	if used[RelPeer] || used[RelProvider] {
		cfg = append(cfg,
			"filter out_upstream {",
			fmt.Sprintf("    if community (%d,%d) then reject;", RelationshipAS, RelPeer),
			fmt.Sprintf("    if community (%d,%d) then reject;", RelationshipAS, RelProvider),
			"    accept;",
			"}",
		)
	}

	names := make([]string, 0, len(rels))
	for nb := range rels {
		names = append(names, nb)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].idx < byName[names[j]].idx })
	for _, nb := range names {
		p := byName[nb]
		var imp, exp string
		switch rels[nb] {
		case RelCustomer:
			imp, exp = "in_customer", "out_customer"
		case RelPeer:
			imp, exp = "in_peer", "out_upstream"
		case RelProvider:
			imp, exp = "in_provider", "out_upstream"
		}
		cfg = append(cfg, fmt.Sprintf("peer %s { remote %s as %d; import filter %s; export filter %s; }",
			p.name, p.rid, p.asn, imp, exp))
	}
	return cfg
}

// EncodeJSON renders a topology to the canonical JSON used by topology
// files: indented, field order fixed by the struct definitions, trailing
// newline. Equal topologies encode byte-identically, so a generated
// topo.json is a reproducible artifact of its Spec.
func EncodeJSON(t *core.Topology) ([]byte, error) {
	out, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

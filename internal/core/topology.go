package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dice/internal/bgp"
	"dice/internal/config"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/prop"
	"dice/internal/rib"
	"dice/internal/router"
	"dice/internal/trace"
)

// Figure 2 of the paper: Customer —(customer-provider link)— Provider
// (DiCE-enabled) — Rest-of-the-Internet. Customer route filtering happens
// at the provider.

// Node names on the virtual network.
const (
	NodeCustomer = "customer"
	NodeProvider = "provider"
	NodeInternet = "internet"
)

// AS numbers and router IDs of the Fig. 2 roles.
const (
	CustomerAS = 65001
	ProviderAS = 65002
	InternetAS = 65003
)

// CustomerSpace is the customer's legitimate address plan.
var CustomerSpace = netaddr.MustParsePrefix("10.7.0.0/16")

// CorrectCustomerFilter only admits the customer's own space — the best
// common practice the paper describes ("customer route filtering ... is
// adopted by several large ISPs to defend against BGP prefix hijacking").
const CorrectCustomerFilter = `
filter customer_in {
    if net ~ 10.7.0.0/16 then accept;
    reject;
}`

// BrokenCustomerFilter is the §4.2 misconfiguration: the filter is
// "partially correct" — the first clause correctly admits the customer
// space, but the operator fat-fingered the second clause, which was meant
// to admit another customer range and instead admits any sufficiently
// specific prefix in 10.0.0.0/8. Exploration negates the first clause's
// predicates and then satisfies the second one's, constructing exactly
// the leaked prefix ranges.
const BrokenCustomerFilter = `
filter customer_in {
    if net ~ 10.7.0.0/16 then accept;
    if net ~ 10.0.0.0/8{24,32} then accept;
    reject;
}`

// ThroughputFilter is a realistic many-clause customer policy used by the
// §4.1 throughput experiments: a larger clause count gives the concolic
// engine a path space comparable to a production BIRD configuration, so
// exploration runs continuously for the whole measurement window.
const ThroughputFilter = `
filter customer_in {
    if bgp_path.len > 16 then reject;
    if origin = incomplete && med > 500 then reject;
    if net ~ 10.7.0.0/16 then accept;
    if net ~ 10.16.0.0/14{16,24} then accept;
    if net ~ 10.32.0.0/13{14,24} && local_pref >= 100 then accept;
    if net ~ 10.64.0.0/12{13,26} then accept;
    if net ~ 10.96.0.0/11{12,28} && med < 200 then accept;
    if net ~ 10.128.0.0/10{11,30} then accept;
    if net ~ 10.192.0.0/11 && bgp_path.origin != 64512 then accept;
    if net ~ 10.224.0.0/12{13,25} then accept;
    if net ~ 10.240.0.0/13 && origin = igp then accept;
    if net ~ 10.248.0.0/14{15,27} then accept;
    if net ~ 10.252.0.0/15 && local_pref > 50 then accept;
    if net ~ 10.0.0.0/8{24,32} then accept;
    reject;
}`

// DeepCustomerFilter is the deep-policy customer import filter: the
// customer's own space, then `clauses` guards over distinct seeded /16s
// of 10/8, each with a {lo,hi} length range and one extra conjunct (on
// bgp_path.origin, local_pref, med or origin, in turn), then the Fig. 2
// misconfigured catch-all, so there is something to find. It is the
// generator of the deep_policy benchmark workload (benchmark/inputs.go),
// which keeps its own copy.
func DeepCustomerFilter(seed int64, clauses int) string {
	rng := rand.New(rand.NewSource(seed ^ 0x706f6c696379)) // "policy"
	var b strings.Builder
	b.WriteString("filter customer_in {\n    if net ~ 10.7.0.0/16 then accept;\n")
	n := 0
	for _, oct := range rng.Perm(256) {
		if n == clauses {
			break
		}
		if oct == 7 || oct == 0 { // the customer's own /16; the peering addresses
			continue
		}
		lo := 17 + rng.Intn(4)
		hi := lo + 2 + rng.Intn(6)
		var extra string
		switch n % 4 {
		case 0:
			extra = fmt.Sprintf(" && bgp_path.origin != %d", 64512+rng.Intn(512))
		case 1:
			extra = " && local_pref >= 0"
		case 2:
			extra = fmt.Sprintf(" && med < %d", 100+rng.Intn(900))
		case 3:
			extra = " && origin = igp"
		}
		fmt.Fprintf(&b, "    if net ~ 10.%d.0.0/16{%d,%d}%s then accept;\n", oct, lo, hi, extra)
		n++
	}
	b.WriteString("    if net ~ 10.0.0.0/8{24,32} then accept;\n    reject;\n}")
	return b.String()
}

// MissingCustomerFilter models PCCW's side of the incident: no filtering
// at all.
const MissingCustomerFilter = `
filter customer_in {
    accept;
}`

// Fig2 is the instantiated experimental topology: a three-node Topology
// built by Topology.Build, with the roles named.
type Fig2 struct {
	Net      *netsim.Network
	Customer *router.Router
	Provider *router.Router
	Internet *router.Router

	fabric *Fabric
}

// Fig2Options parameterizes the topology.
type Fig2Options struct {
	// CustomerFilter is the provider's import policy for the customer
	// (one of the *CustomerFilter constants, or custom source).
	CustomerFilter string
	// Anycast space configured at the provider (FP suppression).
	Anycast []netaddr.Prefix
}

// NewFig2 builds and converges the three-router topology.
func NewFig2(opts Fig2Options) (*Fig2, error) {
	if opts.CustomerFilter == "" {
		opts.CustomerFilter = CorrectCustomerFilter
	}

	anycast := ""
	for _, a := range opts.Anycast {
		anycast += fmt.Sprintf("anycast %s;\n", a)
	}

	return newFig2WithProviderConfig(fmt.Sprintf(`
		router id 10.0.0.2;
		local as %d;
		%s
		%s
		peer %s { remote 10.0.0.1 as %d; import filter customer_in; }
		peer %s { remote 10.0.0.3 as %d; }
	`, ProviderAS, opts.CustomerFilter, anycast, NodeCustomer, CustomerAS, NodeInternet, InternetAS))
}

// newFig2WithProviderConfig builds the topology around a fully custom
// provider configuration (filters, peers, export policies); customer and
// internet keep their standard roles. Node, link and start order are
// Build's — customer, provider, internet — which netsim's same-timestamp
// tie-breaks, and so every golden, depend on.
func newFig2WithProviderConfig(providerSrc string) (*Fig2, error) {
	customerSrc := fmt.Sprintf(`
		router id 10.0.0.1;
		local as %d;
		network %s;
		peer %s { remote 10.0.0.2 as %d; }
	`, CustomerAS, CustomerSpace, NodeProvider, ProviderAS)

	internetSrc := fmt.Sprintf(`
		router id 10.0.0.3;
		local as %d;
		peer %s { remote 10.0.0.2 as %d; }
	`, InternetAS, NodeProvider, ProviderAS)

	topo := &Topology{
		Name: "fig2",
		Nodes: []TopoNode{
			{Name: NodeCustomer, Config: []string{customerSrc}},
			{Name: NodeProvider, Config: []string{providerSrc}},
			{Name: NodeInternet, Config: []string{internetSrc}},
		},
		Edges: []TopoEdge{{A: NodeCustomer, B: NodeProvider}, {A: NodeProvider, B: NodeInternet}},
	}
	fabric, err := topo.Build()
	if err != nil {
		return nil, err
	}
	return &Fig2{
		Net:      fabric.Net,
		Customer: fabric.Routers[NodeCustomer],
		Provider: fabric.Routers[NodeProvider],
		Internet: fabric.Routers[NodeInternet],
		fabric:   fabric,
	}, nil
}

// LoadTable replays trace dump records into the provider from the
// Internet side ("the DiCE-enabled router loads N prefixes from the rest
// of the Internet"). Returns the number of updates delivered.
func (f *Fig2) LoadTable(records []trace.Record) (int, error) {
	dump, _ := trace.Split(records)
	return f.fabric.replay(NodeProvider, NodeInternet, dump, nil)
}

// ReplayUpdates replays incremental trace records through the
// internet→provider session, advancing virtual time to each record's
// offset. Returns the number of updates delivered.
func (f *Fig2) ReplayUpdates(records []trace.Record) (int, error) {
	_, updates := trace.Split(records)
	return f.fabric.replay(NodeProvider, NodeInternet, nil, updates)
}

// --- Federated topology files ------------------------------------------------

// The Fig2 topology above is the paper's fixed three-router testbed. The
// federated subsystem generalizes it: a Topology describes any multi-AS
// arrangement — independently-administered nodes with private configs,
// joined by latency-weighted edges — and Build instantiates it over
// netsim. cmd/dice -topology loads these from JSON files (see
// examples/routeleak/topo.json for the format).

// TopoNode is one autonomous node. Config is the node's full daemon
// configuration source (config.Parse format), given as lines so JSON
// files stay readable; peers must be named after their node names.
type TopoNode struct {
	Name   string   `json:"name"`
	Config []string `json:"config"`
}

// TopoEdge is one duplex link between two nodes.
type TopoEdge struct {
	A         string `json:"a"`
	B         string `json:"b"`
	LatencyMS int    `json:"latency_ms,omitempty"` // 0 = 1ms
}

// latency is the link's one-way delivery latency, read by Topology.Link.
func (e TopoEdge) latency() time.Duration {
	if e.LatencyMS == 0 {
		return time.Millisecond
	}
	return time.Duration(e.LatencyMS) * time.Millisecond
}

// ExploreTarget names one per-node exploration: which node explores
// which of its peerings, under which scenario. An empty Scenario takes
// the experiment's default.
type ExploreTarget struct {
	Node     string `json:"node"`
	Peer     string `json:"peer"`
	Scenario string `json:"scenario,omitempty"`
}

// Topology is the parsed multi-AS topology description.
type Topology struct {
	Name string `json:"name"`
	// NoExportCommunity is the community ("AS:value") marking the
	// no-export policy boundary the federated route-leak oracle checks.
	// Empty = the RFC 1997 well-known NO_EXPORT (65535:65281).
	NoExportCommunity string          `json:"no_export_community,omitempty"`
	Nodes             []TopoNode      `json:"nodes"`
	Edges             []TopoEdge      `json:"edges"`
	Explore           []ExploreTarget `json:"explore,omitempty"`
	// Properties are operator-stated cross-node invariants in the
	// internal/prop language; each entry holds one or more property
	// definitions. A property whose kind matches a built-in oracle
	// (route-leak, persistent-oscillation, multi-hop-blackhole,
	// stale-route) replaces it; new kinds add oracles.
	Properties []string `json:"properties,omitempty"`
}

// ParseTopology parses and validates a topology document.
func ParseTopology(data []byte) (*Topology, error) {
	var t Topology
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	if len(t.Nodes) < 2 {
		return nil, fmt.Errorf("topology %q: need at least 2 nodes, have %d", t.Name, len(t.Nodes))
	}
	names := map[string]bool{}
	for _, n := range t.Nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("topology %q: node with empty name", t.Name)
		}
		if names[n.Name] {
			return nil, fmt.Errorf("topology %q: duplicate node %q", t.Name, n.Name)
		}
		names[n.Name] = true
		if len(n.Config) == 0 {
			return nil, fmt.Errorf("topology %q: node %q has no config", t.Name, n.Name)
		}
	}
	if len(t.Edges) == 0 {
		return nil, fmt.Errorf("topology %q: no edges", t.Name)
	}
	for _, e := range t.Edges {
		if !names[e.A] || !names[e.B] {
			return nil, fmt.Errorf("topology %q: edge %s-%s references unknown node", t.Name, e.A, e.B)
		}
		if e.LatencyMS < 0 || time.Duration(e.LatencyMS) > math.MaxInt64/time.Millisecond {
			return nil, fmt.Errorf("topology %q: edge %s-%s: latency_ms %d out of range", t.Name, e.A, e.B, e.LatencyMS)
		}
	}
	for _, x := range t.Explore {
		if !names[x.Node] || !names[x.Peer] {
			return nil, fmt.Errorf("topology %q: explore target %s/%s references unknown node", t.Name, x.Node, x.Peer)
		}
	}
	if _, err := t.BoundaryCommunity(); err != nil {
		return nil, err
	}
	if _, err := prop.CompileSources(t.Properties); err != nil {
		return nil, fmt.Errorf("topology %q: %w", t.Name, err)
	}
	return &t, nil
}

// LoadTopology reads and parses a topology file.
func LoadTopology(path string) (*Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseTopology(data)
}

// BoundaryCommunity returns the community word marking the topology's
// no-export policy boundary.
func (t *Topology) BoundaryCommunity() (uint32, error) {
	if t.NoExportCommunity == "" {
		return bgp.CommunityNoExport, nil
	}
	as, val, ok := strings.Cut(t.NoExportCommunity, ":")
	if ok {
		a, err1 := strconv.ParseUint(as, 10, 16)
		v, err2 := strconv.ParseUint(val, 10, 16)
		if err1 == nil && err2 == nil {
			return bgp.MakeCommunity(uint16(a), uint16(v)), nil
		}
	}
	return 0, fmt.Errorf("topology %q: bad no_export_community %q (want \"AS:value\")", t.Name, t.NoExportCommunity)
}

// Link connects the edges on net: Build's network, NewDriver's link table.
func (t *Topology) Link(net interface {
	Connect(string, string, time.Duration) error
}) error {
	for _, e := range t.Edges {
		if err := net.Connect(e.A, e.B, e.latency()); err != nil {
			return err
		}
	}
	return nil
}

// Fabric is an instantiated topology: live routers on a virtual network.
type Fabric struct {
	Topo    *Topology
	Net     *netsim.Network
	Routers map[string]*router.Router
}

// Build instantiates the topology over a fresh netsim network, starts
// every node and converges the initial announcements.
func (t *Topology) Build() (*Fabric, error) {
	net := netsim.New(time.Unix(1_300_000_000, 0))
	f := &Fabric{Topo: t, Net: net, Routers: make(map[string]*router.Router, len(t.Nodes))}
	for _, n := range t.Nodes {
		cfg, err := config.Parse(strings.Join(n.Config, "\n"))
		if err != nil {
			return nil, fmt.Errorf("topology %q: node %s: %w", t.Name, n.Name, err)
		}
		r := router.New(n.Name, cfg, net)
		if err := net.AddNode(n.Name, r); err != nil {
			return nil, err
		}
		f.Routers[n.Name] = r
	}
	if err := t.Link(net); err != nil {
		return nil, err
	}
	for _, n := range t.Nodes {
		if err := f.Routers[n.Name].Start(net.Now()); err != nil {
			return nil, err
		}
	}
	net.Run(0) // converge sessions and initial announcements
	return f, nil
}

// NodeShadow is one node's shadow for witness propagation, the one both
// backends hold: a COW clone of the live router whose transport is the
// shadow itself, its own capture sink, so witness messages run through it
// without perturbing the live node. It answers only narrow facts about
// the clone: what a delivery made the node send, and views whose route
// tokens it mints.
type NodeShadow struct {
	r    *router.Router
	now  time.Time                // the live clock, which deliveries run at
	sent []netsim.CapturedMessage // captured since the last Deliver
	// routes are the route objects views have named: RouteView.Token is
	// the index + 1. A shadow names a handful, usually the latest ones, so
	// a backward scan over an inline array beats a map.
	routes []*rib.Route
	inline [8]*rib.Route
	// sentInline holds what most deliveries make a node send.
	sentInline [4]netsim.CapturedMessage
}

// OpenShadow clones live at the live clock now, in O(peers): a witness
// only dirties the prefixes it touches (router.CloneShadow). The clone
// decodes through dec, its shadow set's, when there is one. The live node
// must stay quiescent while shadows are alive (nothing runs the live
// network during witness propagation).
func OpenShadow(live *router.Router, now time.Time, dec *bgp.Decoder) *NodeShadow {
	s := &NodeShadow{now: now}
	s.r, s.routes, s.sent = live.CloneShadow(s, dec), s.inline[:0], s.sentInline[:0]
	return s
}

// Send is the clone's transport (netsim.Transport): it captures what the
// node sends, handed over, for Deliver to report.
func (s *NodeShadow) Send(from, to string, data []byte) {
	s.sent = append(s.sent, netsim.CapturedMessage{From: from, To: to, Data: data})
}

// Router is the clone itself, for tests that inspect it; rounds go
// through Deliver and Query.
func (s *NodeShadow) Router() *router.Router { return s.r }

// CheckSender fails with NoPeerError unless from is one of the node's
// peers.
func (s *NodeShadow) CheckSender(from string) error {
	if s.r.Session(from) == nil {
		return NoPeerError(s.r.Name(), from)
	}
	return nil
}

// Deliver runs msg into the shadow as if from had sent it, after
// CheckSender, and reports the watched prefix's best-route token before
// it, what the node sent since the last Deliver in send order (valid
// until the next), and the node's view of watch after it (Query).
func (s *NodeShadow) Deliver(from string, msg []byte, watch netaddr.Prefix, props []*prop.Compiled, boundary uint32) (before uint64, sent []netsim.CapturedMessage, after RouteView, err error) {
	if err := s.CheckSender(from); err != nil {
		return 0, nil, RouteView{}, err
	}
	before = s.token(s.r.RIB().Best(watch))
	s.r.Deliver(s.now, from, msg)
	sent, s.sent = s.sent, s.sent[:0]
	return before, sent, s.Query(watch, props, boundary), nil
}

// Query is the narrow cross-domain route query: the token of the node's
// exact-prefix best route for p, the covering best route's forwarding
// decision, and one `at` verdict per property in props (none when empty)
// over the best route's env under boundary. Without a best route every
// verdict is true: the driver consults them only for witness-installed
// nodes.
func (s *NodeShadow) Query(p netaddr.Prefix, props []*prop.Compiled, boundary uint32) RouteView {
	best := s.r.RIB().Best(p)
	cov := best // an exact best is its own longest covering route
	if cov == nil {
		cov = s.r.RIB().CoveringBest(p)
	}
	v := RouteView{Token: s.token(best)}
	if cov != nil {
		v.Hop = ForwardHop{HasCovering: true, Local: cov.Local}
		if !cov.Local {
			v.Hop.NextPeer = s.r.PeerNameByAddr(cov.PeerRouterID)
		}
	}
	if len(props) > 0 {
		var env *prop.Env
		if best != nil {
			env = prop.NewEnv(p, &best.Attrs, boundary)
		}
		v.AtMatch = make([]bool, len(props))
		for i, c := range props {
			v.AtMatch[i] = c.AtMatches(env)
		}
	}
	return v
}

// token returns the shadow's token for a route object (0 for none).
func (s *NodeShadow) token(rt *rib.Route) uint64 {
	if rt == nil {
		return 0
	}
	for i := len(s.routes) - 1; i >= 0; i-- {
		if s.routes[i] == rt {
			return uint64(i) + 1
		}
	}
	s.routes = append(s.routes, rt)
	return uint64(len(s.routes))
}

// Shadow opens every node's shadow at once, through the one open
// (OpenShadow). Rounds open a node on its shadow set's first call to it
// (Fleet.OpenShadows); this eager form is only the core.shadow_ms
// probe's entry point. The error is always nil.
func (f *Fabric) Shadow() (map[string]*NodeShadow, error) {
	now := f.Net.Now()
	s := make(map[string]*NodeShadow, len(f.Routers))
	for name, r := range f.Routers {
		s[name] = OpenShadow(r, now, nil)
	}
	return s, nil
}

// NodeNames returns the fabric's node names, sorted.
func (f *Fabric) NodeNames() []string {
	names := make([]string, 0, len(f.Routers))
	for n := range f.Routers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- Built-in federated topologies -------------------------------------------

// builtinNodeConfig renders node i of an n-node generated topology: AS
// 65001+i originating 10.(16+i).0.0/16, importing from every peer through
// a leak-prone multi-clause filter (the §4.2 misconfiguration class: a
// too-wide second accept), exporting everything (the missing NO_EXPORT
// check the routeleak oracle flags).
func builtinNodeConfig(i int, peers []int, extraNets int) TopoNode {
	name := builtinNodeName(i)
	cfg := []string{
		fmt.Sprintf("router id 10.0.0.%d;", i+1),
		fmt.Sprintf("local as %d;", 65001+i),
		fmt.Sprintf("network 10.%d.0.0/16;", 16+i),
	}
	// Extra originated /24s bulk up every node's table (the dense
	// full-table-ish benchmark shape); they stay inside the node's own
	// /16 so the peer_in filter admits them everywhere. A /16 holds 256
	// distinct /24s — more would silently duplicate, so clamp.
	if extraNets > 256 {
		extraNets = 256
	}
	for k := 0; k < extraNets; k++ {
		cfg = append(cfg, fmt.Sprintf("network 10.%d.%d.0/24;", 16+i, k))
	}
	cfg = append(cfg,
		"filter peer_in {",
		"    if bgp_path.len > 12 then reject;",
		"    if net ~ 10.16.0.0/12 then accept;",
		"    if net ~ 10.0.0.0/8{24,32} then accept;",
		"    reject;",
		"}",
	)
	for _, j := range peers {
		cfg = append(cfg, fmt.Sprintf("peer %s { remote 10.0.0.%d as %d; import filter peer_in; }",
			builtinNodeName(j), j+1, 65001+j))
	}
	return TopoNode{Name: name, Config: cfg}
}

func builtinNodeName(i int) string { return fmt.Sprintf("as%d", 65001+i) }

// LineTopology generates an n-node chain (as65001 — as65002 — ...).
func LineTopology(n int) *Topology { return DenseLineTopology(n, 0) }

// DenseLineTopology generates an n-node chain whose nodes each
// originate extraNets additional /24 networks (clamped to the 256 a
// node's /16 can hold). With non-trivial tables the per-witness
// shadow cost dominates a federated round — the shape the
// COW-sharing work is measured against.
func DenseLineTopology(n, extraNets int) *Topology {
	name := fmt.Sprintf("line-%d", n)
	if extraNets > 0 {
		name = fmt.Sprintf("line-%d-dense-%d", n, extraNets)
	}
	t := &Topology{Name: name}
	for i := 0; i < n; i++ {
		var peers []int
		if i > 0 {
			peers = append(peers, i-1)
		}
		if i < n-1 {
			peers = append(peers, i+1)
		}
		t.Nodes = append(t.Nodes, builtinNodeConfig(i, peers, extraNets))
	}
	for i := 0; i+1 < n; i++ {
		t.Edges = append(t.Edges, TopoEdge{A: builtinNodeName(i), B: builtinNodeName(i + 1)})
	}
	return t
}

// MeshTopology generates an n-node full mesh, the BGP44mesh-style
// workload: every node peers with every other.
func MeshTopology(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("mesh-%d", n)}
	for i := 0; i < n; i++ {
		var peers []int
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, j)
			}
		}
		t.Nodes = append(t.Nodes, builtinNodeConfig(i, peers, 0))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.Edges = append(t.Edges, TopoEdge{A: builtinNodeName(i), B: builtinNodeName(j)})
		}
	}
	return t
}

package core

import (
	"encoding/json"
	"fmt"
	"math"
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

// ShadowFabric is an isolated copy of a fabric for witness propagation:
// every router cloned (sessions established, tables shared copy-on-write
// through rib.Overlay) onto one capture sink. It has no network of its
// own — Deliver is a Relay step — so concrete witness messages run
// through it on the scheduler the distributed backend uses, without
// perturbing the live fabric: the federated analogue of exploring on
// checkpoint clones.
type ShadowFabric struct {
	Routers map[string]*router.Router
	sink    *netsim.CaptureSink
	now     time.Time                // the live clock, as an agent delivers at
	emitted []netsim.CapturedMessage // Deliver's drain buffer
}

// Shadow clones the fabric for witness propagation. Creation is O(peers)
// per node instead of O(table): a witness only dirties the prefixes it
// touches, so at full-table scale a shadow costs what fork()'s COW would.
// The live fabric must stay quiescent while shadows are alive (it does:
// nothing runs the live network during witness propagation). The error
// is always nil.
func (f *Fabric) Shadow() (*ShadowFabric, error) {
	s := &ShadowFabric{Routers: make(map[string]*router.Router, len(f.Routers)), sink: netsim.NewCaptureSink(), now: f.Net.Now()}
	for name, r := range f.Routers {
		s.Routers[name] = r.CloneCOW(s.sink)
	}
	return s, nil
}

// Deliver is the in-process relay step (StepFunc): each delivery, in
// order, straight into its router — after the check the node agent's
// inject_witness makes, that the sender is one of the node's peers —
// reading the watched prefix's best route first where the relay asks for
// it, and handing on what the router sent. After-views are not read here:
// the backend reads one per touched node once the waves are done.
func (s *ShadowFabric) Deliver(step []Delivery, _ int, emit func(d *Delivery, to string, msg []byte)) error {
	for i := range step {
		d := &step[i]
		r := s.Routers[d.To]
		if r == nil || r.Session(d.From) == nil {
			return NoPeerError(d.To, d.From)
		}
		if d.First {
			if best := r.RIB().Best(d.Watch); best != nil {
				d.Before = best
			}
		}
		r.Deliver(s.now, d.From, d.Data)
		s.emitted = s.sink.Drain(s.emitted[:0])
		for _, m := range s.emitted {
			emit(d, m.To, m.Data)
		}
	}
	return nil
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
// Fabric.Shadow cost dominates a federated round — the shape the
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

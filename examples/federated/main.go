// Federated demonstrates the §2.4 discussion: extending DiCE's horizon
// across administrative domains while preserving confidentiality.
//
// Four autonomous systems with *different, private* policies peer in a
// chain. Each AS runs DiCE locally over its own router. No AS can read
// another's configuration or routing table; instead, each exposes only a
// narrow query interface — "which origin AS do you currently have for
// this prefix?" — which is enough for the hijack oracle yet reveals
// nothing about policies or full tables ("nodes only communicate state
// information through a narrow interface yet capable to allow us to
// detect faults").
//
//	go run ./examples/federated
package main

import (
	"fmt"
	"log"

	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/netaddr"
	"dice/internal/router"
)

// originQuery is the narrow cross-domain interface: given a prefix,
// return the origin AS of the covering route (or 0). It deliberately
// exposes nothing else — no paths, no policies, no table dumps.
type originQuery func(p netaddr.Prefix) uint16

func narrowInterface(r *router.Router) originQuery {
	return func(p netaddr.Prefix) uint16 {
		if rt := r.RIB().CoveringBest(p); rt != nil {
			return rt.OriginAS()
		}
		return 0
	}
}

func main() {
	log.SetFlags(0)

	// Topology: stub(AS64900) — transitA(AS64910) — transitB(AS64920) — content(AS64930)
	// transitA's filter for its stub customer has the §4.2 hole.
	configs := map[string]string{
		"stub": `
			router id 10.9.0.1; local as 64900;
			network 10.90.0.0/16;
			peer transitA { remote 10.9.0.2 as 64910; }`,
		"transitA": `
			router id 10.9.0.2; local as 64910;
			filter stub_in {
				if net ~ 10.90.0.0/16 then accept;
				if net ~ 10.0.0.0/8{24,32} then accept;  # the hole
				reject;
			}
			peer stub { remote 10.9.0.1 as 64900; import filter stub_in; }
			peer transitB { remote 10.9.0.3 as 64920; }`,
		"transitB": `
			router id 10.9.0.3; local as 64920;
			filter longpaths_out {
				if bgp_path.len > 12 then reject;
				accept;
			}
			peer transitA { remote 10.9.0.2 as 64910; export filter longpaths_out; }
			peer content { remote 10.9.0.4 as 64930; }`,
		"content": `
			router id 10.9.0.4; local as 64930;
			network 10.153.112.0/22;
			peer transitB { remote 10.9.0.3 as 64920; }`,
	}
	topo := &core.Topology{Name: "federated-demo"}
	for _, name := range []string{"stub", "transitA", "transitB", "content"} {
		topo.Nodes = append(topo.Nodes, core.TopoNode{Name: name, Config: []string{configs[name]}})
	}
	for _, l := range [][2]string{{"stub", "transitA"}, {"transitA", "transitB"}, {"transitB", "content"}} {
		topo.Edges = append(topo.Edges, core.TopoEdge{A: l[0], B: l[1]})
	}
	fabric, err := topo.Build()
	if err != nil {
		log.Fatal(err)
	}
	routers := fabric.Routers

	fmt.Println("federated topology converged:")
	for _, n := range topo.Nodes {
		r := routers[n.Name]
		fmt.Printf("  %-9s AS%d, %d prefixes (policies private to this AS)\n",
			n.Name, r.Config().LocalAS, r.RIB().Prefixes())
	}
	fmt.Println()

	// transitA runs DiCE locally over its own stub peering.
	ta := routers["transitA"]
	d := core.New(ta, core.Options{Engine: concolic.Options{MaxRuns: 2000}})
	res, err := d.ExplorePeer("stub")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transitA explored its stub peering locally: %d paths in %d runs\n",
		len(res.Report.Paths), res.Report.Runs)

	// Local findings use transitA's own table.
	fmt.Printf("local findings (against transitA's own RIB): %d\n", len(res.Findings))
	for _, f := range res.Findings {
		fmt.Printf("  %s\n", f)
	}

	// Cross-domain check: transitA asks the *content* AS — through the
	// narrow interface only — whether explored-and-accepted announcements
	// would override origins the content AS currently sees. This extends
	// the oracle's horizon across the network without sharing any state
	// beyond (prefix → origin AS).
	fmt.Println("\ncross-domain check through the narrow interface (content AS):")
	query := narrowInterface(routers["content"])
	crossFindings := 0
	seen := map[netaddr.Prefix]bool{}
	for _, p := range res.Report.Paths {
		out, ok := p.Output.(router.Outcome)
		if !ok || !out.Accepted || seen[out.Prefix] {
			continue
		}
		seen[out.Prefix] = true
		remoteOrigin := query(out.Prefix)
		if remoteOrigin != 0 && remoteOrigin != out.OriginAS {
			crossFindings++
			fmt.Printf("  explored announcement %s (origin AS%d) would override AS%d's\n",
				out.Prefix, out.OriginAS, remoteOrigin)
			fmt.Printf("    route as seen from the content AS — potential federated hijack\n")
		}
	}
	if crossFindings == 0 {
		fmt.Println("  (no cross-domain conflicts among witness prefixes; the region-based")
		fmt.Println("  local oracle above already covers the installed victims)")
	}
	fmt.Println("\nnote: the content AS revealed only (prefix → origin AS) pairs on demand;")
	fmt.Println("its policies, paths and full table stayed private (§2.4).")
}

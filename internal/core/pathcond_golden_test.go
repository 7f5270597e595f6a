package core

import (
	"flag"
	"fmt"
	"testing"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/netaddr"
	"dice/internal/regress"
	"dice/internal/sym"
)

var updatePathcond = flag.Bool("update-pathcond", false, "rewrite testdata/pathcond_*.golden from this build's path conditions")

// pathcondProvider is the Fig. 2 provider with the §4.2 broken customer
// filter, one community-conditioned import clause and a protective export
// policy: every kind of constraint the instrumented pipeline records —
// import prefix matches, a symbolic community test, export clauses over
// the installed route — shows up in the rendered conditions.
const pathcondProvider = `
	router id 10.0.0.2; local as 65002;
	filter customer_in {
		if net ~ 10.7.0.0/16 then accept;
		if community (65002, 80) then { set local_pref 80; accept; }
		if net ~ 10.0.0.0/8{24,32} && bgp_path.origin != 64999 then accept;
		reject;
	}
	filter internet_out {
		if community (65535, 65281) then reject;
		if net.len > 28 then reject;
		accept;
	}
	peer customer { remote 10.0.0.1 as 65001; import filter customer_in; }
	peer internet { remote 10.0.0.3 as 65003; export filter internet_out; }`

// TestPathConditionsPinned pins what "same behaviour" means below the
// finding level for the scenarios deep16.golden does not cover: the
// rendered path condition (sym.FormatPath, assumptions then branches) of
// every path the routeleak, withdraw and open scenarios discover on the
// Fig. 2 topology, in discovery order. The order of constraints inside a
// condition is the order the handler evaluated its branches in — import
// clauses, then export filters peer by peer — so a refactor of the
// message pipeline must leave these files byte-identical.
func TestPathConditionsPinned(t *testing.T) {
	f, err := newFig2WithProviderConfig(pathcondProvider)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadTable(append(smallTrace(64, 0), Victims()...)); err != nil {
		t.Fatal(err)
	}
	// Two more customer routes, so the withdraw model enumerates several
	// targets; the last one is the seed the scenarios start from.
	sess := f.Customer.Session(NodeProvider)
	for i, p := range []string{"10.7.1.0/24", "10.7.2.0/24"} {
		u := &bgp.Update{
			Attrs: bgp.Attrs{
				HasOrigin:   true,
				Origin:      bgp.OriginIGP,
				ASPath:      bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{CustomerAS}}},
				HasNextHop:  true,
				NextHop:     netaddr.AddrFrom4(10, 0, 0, 1),
				Communities: []uint32{bgp.MakeCommunity(CustomerAS, uint16(i+1))},
			},
			NLRI: []netaddr.Prefix{netaddr.MustParsePrefix(p)},
		}
		if err := sess.SendUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	f.Net.Run(0)

	for _, sc := range []string{ScenarioRouteLeak, ScenarioWithdraw, ScenarioOpen} {
		// One worker: discovery order, and so the golden's line order, is
		// deterministic.
		res, err := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 2000, Workers: 1}}).
			ExploreScenario(sc, NodeCustomer)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Report.Paths) < 3 {
			t.Fatalf("%s explored %d paths; the scenario did not open up", sc, len(res.Report.Paths))
		}
		var lines []string
		for _, p := range res.Report.Paths {
			lines = append(lines, fmt.Sprintf("path %d: assume %s | %s", p.Seq, sym.FormatPath(p.Assumes), sym.FormatPath(p.Path)))
		}
		if err := regress.Check("testdata/pathcond_"+sc+".golden", lines, *updatePathcond); err != nil {
			t.Fatal(err)
		}
	}
}

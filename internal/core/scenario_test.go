package core

import (
	"testing"

	"dice/internal/concolic"
)

// TestScenarioRegistry: the built-in scenarios are registered and lookup
// failures name what IS available.
func TestScenarioRegistry(t *testing.T) {
	want := []string{ScenarioOpen, ScenarioUpdate, ScenarioWithdraw}
	got := ScenarioNames()
	for _, name := range want {
		sc, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("scenario %q not registered; have %v", name, got)
		}
		if sc.Name() != name || sc.Description() == "" {
			t.Fatalf("scenario %q malformed: name=%q desc=%q", name, sc.Name(), sc.Description())
		}
	}
	if _, ok := LookupScenario("nonsense"); ok {
		t.Fatal("bogus scenario resolved")
	}
	f, err := NewFig2(Fig2Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(f.Provider, Options{}).ExploreScenario("nonsense", NodeCustomer); err == nil {
		t.Fatal("exploring an unknown scenario did not error")
	}
}

// TestUpdateAndOpenShareRoundMachinery: both ported scenarios run through
// ExploreScenario with the same DiCE instance and produce their
// scenario-specific results.
func TestUpdateAndOpenShareRoundMachinery(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	recs := append(smallTrace(200, 0), victimRecord("10.6.0.0/16", 64999))
	if _, err := f.LoadTable(recs); err != nil {
		t.Fatal(err)
	}
	d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 2000}})

	upd, err := d.ExploreScenario(ScenarioUpdate, NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if upd.Scenario != ScenarioUpdate || len(upd.Findings) == 0 {
		t.Fatalf("update scenario: %q with %d findings", upd.Scenario, len(upd.Findings))
	}

	open, err := d.ExploreScenario(ScenarioOpen, NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	oe, ok := open.Details.(*OpenExploration)
	if !ok || open.Scenario != ScenarioOpen {
		t.Fatalf("open scenario details = %T", open.Details)
	}
	if oe.Paths < 5 {
		t.Fatalf("open scenario explored %d paths, want >= 5", oe.Paths)
	}
}

// TestWithdrawScenario: the new scenario — exploring the withdrawal side
// of UPDATE handling. The customer contributed exactly one route (its own
// space) with no alternative path, so exploration must discover both the
// matching withdraw (which blackholes the prefix and propagates the loss)
// and the no-op path, and the oracle must flag the blackhole with a
// validated witness.
func TestWithdrawScenario(t *testing.T) {
	f, err := NewFig2(Fig2Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadTable(smallTrace(100, 0)); err != nil {
		t.Fatal(err)
	}
	d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 500}})
	res, err := d.ExploreScenario(ScenarioWithdraw, NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	we, ok := res.Details.(*WithdrawExploration)
	if !ok {
		t.Fatalf("details = %T", res.Details)
	}
	if we.Paths < 2 {
		t.Fatalf("withdraw exploration found %d paths, want >= 2 (hit + miss)", we.Paths)
	}
	var hit, miss bool
	for _, oc := range we.Outcomes {
		if oc.Accepted {
			hit = true
			if oc.Prefix != CustomerSpace {
				t.Fatalf("removed an unexpected prefix: %v", oc.Prefix)
			}
			if !oc.Blackholed() {
				t.Fatalf("customer's only route withdrawn but not blackholed: %+v", oc)
			}
		} else {
			miss = true
		}
	}
	if !hit || !miss {
		t.Fatalf("outcome matrix incomplete (hit=%v miss=%v): %+v", hit, miss, we.Outcomes)
	}
	if len(res.Findings) == 0 {
		t.Fatal("blackhole oracle reported nothing")
	}
	fd := res.Findings[0]
	if fd.Kind != "withdraw-blackhole" || !fd.Validated || fd.Prefix != CustomerSpace {
		t.Fatalf("bad finding: %+v", fd)
	}
	spreads := false
	for _, p := range fd.SpreadTo {
		if p == NodeInternet {
			spreads = true
		}
	}
	if !spreads {
		t.Fatalf("blackhole does not report propagation to the internet peer: %v", fd.SpreadTo)
	}
	if we.String() == "" {
		t.Fatal("empty report")
	}
	// The live RIB still holds the customer route: exploration was
	// clone-isolated.
	if f.Provider.RIB().Best(CustomerSpace) == nil {
		t.Fatal("live RIB lost the customer route to exploration")
	}
}

// TestWarmRoundIssuesFewerSolverCalls is the online-mode acceptance
// check: with ReuseState, a second round on the same peer and seed skips
// every already-explored path and negation, so it issues (measurably —
// here: zero vs. many) fewer solver queries.
func TestWarmRoundIssuesFewerSolverCalls(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	recs := append(smallTrace(200, 0), victimRecord("10.6.0.0/16", 64999))
	if _, err := f.LoadTable(recs); err != nil {
		t.Fatal(err)
	}
	d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 2000}, ReuseState: true})

	cold, err := d.ExplorePeer(NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report.SolverCalls == 0 || len(cold.Report.Paths) == 0 {
		t.Fatalf("cold round did no work: %d calls, %d paths",
			cold.Report.SolverCalls, len(cold.Report.Paths))
	}

	warm, err := d.ExplorePeer(NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	warmQueries := warm.Report.SolverCalls
	if warmQueries >= cold.Report.SolverCalls {
		t.Fatalf("warm round issued %d queries, cold issued %d", warmQueries, cold.Report.SolverCalls)
	}
	if warm.Report.SkippedNegations == 0 {
		t.Fatal("warm round skipped no negations")
	}
	if len(warm.Report.Paths) != 0 {
		t.Fatalf("warm round re-reported %d known paths", len(warm.Report.Paths))
	}

	st := d.State(ScenarioUpdate, NodeCustomer)
	if st == nil {
		t.Fatal("no accumulated state for the update scenario")
	}
	if stats := st.Stats(); stats.Rounds != 2 || stats.Paths != len(cold.Report.Paths) {
		t.Fatalf("state stats = %+v, want 2 rounds / %d paths", stats, len(cold.Report.Paths))
	}

	// Per-(scenario, peer) isolation: an open-scenario round must not see
	// the update scenario's state.
	if _, err := d.ExploreScenario(ScenarioOpen, NodeCustomer); err != nil {
		t.Fatal(err)
	}
	if open := d.State(ScenarioOpen, NodeCustomer); open == nil || open.Stats().Paths == 0 {
		t.Fatal("open scenario accumulated no state of its own")
	}
}

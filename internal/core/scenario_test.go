package core

import (
	"fmt"
	"testing"

	"dice/internal/concolic"
)

// TestScenarioRegistry: the built-in scenarios are registered and lookup
// failures name what IS available.
func TestScenarioRegistry(t *testing.T) {
	want := []string{ScenarioOpen, ScenarioUpdate, ScenarioWithdraw}
	got := ScenarioNames()
	for _, name := range want {
		sc, err := LookupScenario(name)
		if err != nil {
			t.Fatalf("scenario %q not registered: %v", name, err)
		}
		if sc.Name() != name || sc.Description() == "" {
			t.Fatalf("scenario %q malformed: name=%q desc=%q", name, sc.Name(), sc.Description())
		}
	}
	lookupErr := fmt.Sprintf("unknown scenario %q (registered: %v)", "nonsense", got)
	if _, err := LookupScenario("nonsense"); err == nil || err.Error() != lookupErr {
		t.Fatalf("bogus scenario: %v, want %q", err, lookupErr)
	}
	f, err := NewFig2(Fig2Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(f.Provider, Options{}).ExploreScenario("nonsense", NodeCustomer); err == nil || err.Error() != lookupErr {
		t.Fatalf("exploring an unknown scenario: %v, want %q", err, lookupErr)
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
// check, for every registered scenario: with ReuseState, a round on the
// same peer and seed after the first skips every already-explored path
// and negation, so it reports no new path and issues no solver query
// (cmd/experiments -exp warmstate prints the same rounds). One DiCE runs
// them all, so each scenario's first round being cold also checks that
// state is kept per (scenario, peer).
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
	for _, name := range ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			cold, err := d.ExploreScenario(name, NodeCustomer)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Report.SolverCalls == 0 || len(cold.Report.Paths) == 0 {
				t.Fatalf("cold round did no work: %d calls, %d paths",
					cold.Report.SolverCalls, len(cold.Report.Paths))
			}
			for round := 2; round <= 3; round++ {
				warm, err := d.ExploreScenario(name, NodeCustomer)
				if err != nil {
					t.Fatal(err)
				}
				if rep := warm.Report; rep.SolverCalls != 0 || len(rep.Paths) != 0 || rep.SkippedNegations == 0 {
					t.Fatalf("round %d: %d solver calls, %d new paths, %d negations skipped; want 0, 0, some",
						round, rep.SolverCalls, len(rep.Paths), rep.SkippedNegations)
				}
			}
			st := d.State(name, NodeCustomer)
			if st == nil {
				t.Fatal("no accumulated state")
			}
			if stats := st.Stats(); stats.Rounds != 3 || stats.Paths != len(cold.Report.Paths) {
				t.Fatalf("state stats = %+v, want 3 rounds / %d paths", stats, len(cold.Report.Paths))
			}
		})
	}
}

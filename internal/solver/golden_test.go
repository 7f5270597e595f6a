package solver_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/router"
	"dice/internal/solver"
	"dice/internal/sym"
	"dice/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/deep16.golden from this build's models")

// deepPolicy is the benchmark's deep_policy filter generator
// (benchmark/inputs.go, a module the root one cannot import): the
// customer's own space, then `clauses` guards over distinct seeded /16s
// with a length range and one extra conjunct, then the Fig. 2
// misconfigured catch-all.
func deepPolicy(seed int64, clauses int) string {
	rng := rand.New(rand.NewSource(seed ^ 0x706f6c696379))
	var b strings.Builder
	b.WriteString("filter customer_in {\n    if net ~ 10.7.0.0/16 then accept;\n")
	n := 0
	for _, oct := range rng.Perm(256) {
		if n == clauses {
			break
		}
		if oct == 7 || oct == 0 {
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

// noExport is the route-leak oracle's extra conjunct: the announcement
// carries the RFC 1997 NO_EXPORT community.
var noExport = sym.NewCmp(sym.OpEq, router.LeakInputs.Var(router.LeakCommunity), sym.NewConst(uint64(bgp.CommunityNoExport), 32))

// deep16Paths explores the route-leak scenario under a seeded 16-clause
// deep policy with one worker, so discovery order — and with it every
// line of the golden — is deterministic.
func deep16Paths(t *testing.T) []concolic.PathResult {
	t.Helper()
	f, err := core.NewFig2(core.Fig2Options{CustomerFilter: deepPolicy(1, 16)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultGenConfig()
	cfg.Seed, cfg.TableSize, cfg.UpdateCount = 1, 64, 0
	if _, err := f.LoadTable(append(trace.Generate(cfg), core.Victims()...)); err != nil {
		t.Fatal(err)
	}
	res, err := core.New(f.Provider, core.Options{Engine: concolic.Options{MaxRuns: 2000, Workers: 1}}).
		ExploreScenario(core.ScenarioRouteLeak, core.NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Paths) < 16 || len(res.Findings) == 0 {
		t.Fatalf("explored %d paths with %d findings; the policy did not open up", len(res.Report.Paths), len(res.Findings))
	}
	return res.Report.Paths
}

// renderModel renders a solver answer canonically: the result, then the
// model as id=value pairs in id order.
func renderModel(env sym.Env, res solver.Result) string {
	ids := make([]int, 0, len(env))
	for id := range env {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	b.WriteString(res.String())
	for _, id := range ids {
		fmt.Fprintf(&b, " %d=%d", id, env[id])
	}
	return b.String()
}

// TestDeepPolicyModelsPinned pins every model the solver returns on a
// seeded 16-clause deep policy: each suffix negation of each explored
// path, asked the way a scheduler worker asks it (one reused solver,
// SolvePrefixed, the path's own assignment as the hint), and each path's
// route-leak oracle query (path condition ∧ community = NO_EXPORT, fresh
// solver, Solve). The oracle query is asked the way the judge asks it
// too — on the reused worker solver, from the path condition's snapshot
// (SolveExtended) — and must answer the fresh solver's line. Kernel
// changes — state layout, trial order, search shortcuts — must leave this
// file byte-identical; what the benchmark's snapshot hash says about
// whole rounds, this says about single queries.
func TestDeepPolicyModelsPinned(t *testing.T) {
	worker := solver.New(solver.Options{})
	var lines []string
	for _, p := range deep16Paths(t) {
		for i := range p.Path {
			q := make([]sym.Expr, 0, len(p.Assumes)+i+1)
			q = append(append(q, p.Assumes...), p.Path[:i]...)
			env, r := worker.SolvePrefixed(append(q, sym.NewNot(p.Path[i])), p.Env)
			lines = append(lines, fmt.Sprintf("path %d negate %d: %s", p.Seq, i, renderModel(env, r)))
		}
		env, r := solver.New(solver.Options{}).SolveHinted(append(p.Constraints(), noExport), p.Env)
		line := fmt.Sprintf("path %d oracle: %s", p.Seq, renderModel(env, r))
		env, r = worker.SolveExtended(p.Constraints(), []sym.Expr{noExport}, p.Env)
		if judged := fmt.Sprintf("path %d oracle: %s", p.Seq, renderModel(env, r)); judged != line {
			t.Errorf("the judge's way answers\n%s\na fresh solver answers\n%s", judged, line)
		}
		lines = append(lines, line)
	}
	got := strings.Join(lines, "\n") + "\n"

	const golden = "testdata/deep16.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wl := strings.Split(string(want), "\n")
		for i, l := range strings.Split(got, "\n") {
			if i >= len(wl) || l != wl[i] {
				w := "(end of file)"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("%s line %d:\n got %s\nwant %s\n(%d lines now, %d pinned)", golden, i+1, l, w, len(lines), len(wl)-1)
			}
		}
		t.Fatalf("%s: %d lines now, %d pinned", golden, len(lines), len(wl)-1)
	}
}

// TestDeepPolicyPropagationsPinned pins the work the deep16 exploration's
// queries cost, counted in propagations per query: every negation and
// every route-leak oracle query asked the way the exploration asks them —
// one worker solver, SolvePrefixed for negations, SolveExtended for the
// oracle and Solver.Analyze for the region of each path it finds a
// witness on. Before worklist propagation, with the oracle on a fresh
// solver and the region a from-scratch Analyze, the same queries cost
// 41.88 propagations each (8711 for 208 queries); the pin is a third of
// that, so a change that brings back sweeps over the whole conjunction,
// or drops the active set, fails here.
func TestDeepPolicyPropagationsPinned(t *testing.T) {
	const parentPerQuery = 8711.0 / 208
	worker := solver.New(solver.Options{})
	for _, p := range deep16Paths(t) {
		for i := range p.Path {
			q := make([]sym.Expr, 0, len(p.Assumes)+i+1)
			q = append(append(q, p.Assumes...), p.Path[:i]...)
			worker.SolvePrefixed(append(q, sym.NewNot(p.Path[i])), p.Env)
		}
		if _, r := worker.SolveExtended(p.Constraints(), []sym.Expr{noExport}, p.Env); r == solver.Sat {
			worker.Analyze(p.Constraints())
		}
	}
	per := float64(worker.Propagations) / float64(worker.Calls)
	t.Logf("%d propagations for %d queries: %.2f per query (%.0f%% of the sweeps' %.2f)",
		worker.Propagations, worker.Calls, per, 100*per/parentPerQuery, parentPerQuery)
	if per > parentPerQuery/3 {
		t.Fatalf("%.2f propagations per query, more than a third of the %.2f full sweeps cost", per, parentPerQuery)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"dice/internal/core"
)

// tinyScale runs every workload's real code path in milliseconds.
var tinyScale = scale{table: 300, deepTable: 64, clauses: 8, nodes: 16, targets: 3, setups: 1}

func tinyRun(workload string, traced bool) *run {
	return newRun(workload, 2, tinyScale, 150*time.Millisecond, traced, io.Discard)
}

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsSmoke runs both passes of every workload at tiny scale:
// no operation may fail, and the metrics emitted must be exactly the ones
// BENCHMARK.json declares, by name and unit.
func TestWorkloadsSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloadNames))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, wl := range workloadNames {
		if spec.Workloads[i].Name != wl {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, spec.Workloads[i].Name, wl)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", wl, traced), func(t *testing.T) {
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				r := tinyRun(wl, traced)
				rep, err := r.execute(filepath.Join(t.TempDir(), "trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("correct=%t attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, r.failures)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("declared metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s emitted in %q, declared in %q", m.Name, got.Unit, m.Unit)
					case !nameRE.MatchString(m.Name):
						t.Errorf("metric name %q outside the contract's alphabet", m.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", m.Name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v; they must never be 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestFleetBackendsAgree: the in-process and the wire backend render the
// same round for the same seed.
func TestFleetBackendsAgree(t *testing.T) {
	var shas []string
	for _, wl := range []string{"fleet_inproc", "fleet_wire"} {
		setup, err := newSetup(wl, 3, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		b, err := setup()
		if err != nil {
			t.Fatal(err)
		}
		ri, err := b.cold()
		b.close()
		if err != nil {
			t.Fatal(err)
		}
		shas = append(shas, ri.sha)
	}
	if shas[0] != shas[1] {
		t.Errorf("snapshot_sha differs: in-process %s, wire %s", shas[0], shas[1])
	}
}

// TestTraceWellFormed: every span's parent exists, children lie inside
// their parent, self time is never negative, and the recomposed round
// renders what ExploreScenario / Round() render.
func TestTraceWellFormed(t *testing.T) {
	for _, wl := range []string{"deep_policy", "fleet_inproc"} {
		setup, err := newSetup(wl, 2, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		b, err := setup()
		if err != nil {
			t.Fatal(err)
		}
		want, err := b.cold()
		if err != nil {
			t.Fatal(err)
		}
		sp := &spans{}
		for round := 1; round <= 3; round++ {
			ri, _, err := tracedRound(sp, round, b.pieces())
			if err != nil {
				t.Fatal(err)
			}
			if ri.sha != want.sha {
				t.Errorf("%s: recomposed round %d renders %s, the real round %s", wl, round, ri.sha, want.sha)
			}
		}
		b.close()

		byID := map[int]span{}
		for _, s := range sp.all {
			byID[s.id] = s
		}
		self := sp.selfTimes()
		names := map[string]bool{}
		for _, s := range sp.all {
			names[s.name] = true
			if s.parent != 0 {
				p, ok := byID[s.parent]
				if !ok {
					t.Fatalf("%s: span %d (%s) has unknown parent %d", wl, s.id, s.name, s.parent)
				}
				if p.round != s.round {
					t.Errorf("%s: span %d in round %d, its parent in round %d", wl, s.id, s.round, p.round)
				}
				if s.start.Before(p.start) || s.start.Add(s.dur).After(p.start.Add(p.dur)) {
					t.Errorf("%s: span %d (%s) does not nest inside its parent %d (%s)", wl, s.id, s.name, p.id, p.name)
				}
			} else if s.name != spanRound {
				t.Errorf("%s: span %d (%s) has no parent", wl, s.id, s.name)
			}
			if self[s.id] < 0 {
				t.Errorf("%s: span %d (%s) has self time %s", wl, s.id, s.name, self[s.id])
			}
		}
		for _, name := range []string{spanRound, spanPrepare, spanClone, spanExplore, spanAnalyze} {
			if !names[name] {
				t.Errorf("%s: no %s span", wl, name)
			}
		}
		if wl == "fleet_inproc" && !names[spanCheckWitness] {
			t.Errorf("%s: no %s span", wl, spanCheckWitness)
		}
		var total float64
		for _, share := range sp.selfShare() {
			total += share
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s: self-time shares sum to %v, want 1", wl, total)
		}
	}
}

// TestTraceFile: the traced pass writes Chrome trace_event JSON whose
// spans carry id, parent and round.
func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := tinyRun("fleet_wire", true).execute(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	tracks, rounds := map[string]bool{}, 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			tracks[strings.SplitN(ev.Args["name"], "/", 2)[0]] = true
		}
		if ev.Ph == "X" && ev.Name == spanRound {
			rounds++
			for _, key := range []string{"id", "parent", "round"} {
				if _, ok := ev.Args[key]; !ok {
					t.Errorf("round span without %q", key)
				}
			}
		}
	}
	if rounds == 0 {
		t.Error("no round spans in the trace file")
	}
	for _, track := range []string{"benchmark", "rpc", "coordinator"} {
		if !tracks[track] {
			t.Errorf("no %q track in the trace file (have %v)", track, tracks)
		}
	}
}

// TestHoldLockCountsTwoHoldsPerRound: one ExploreScenario round takes the
// CloneLock for the seed read and for the checkpoint clone, nothing else.
func TestHoldLockCountsTwoHoldsPerRound(t *testing.T) {
	b, err := setupNode(2, nodeSpec{scenario: core.ScenarioUpdate, table: tinyScale.table, workers: 1, live: true})
	if err != nil {
		t.Fatal(err)
	}
	lr := b.driver.start(false)
	const rounds = 4
	for i := 0; i < rounds; i++ {
		if _, err := b.cold(); err != nil {
			t.Fatal(err)
		}
	}
	lr.halt()
	if got := len(b.lock.holds); got != 2*rounds {
		t.Errorf("%d holds over %d rounds, want exactly two per round", got, rounds)
	}
	if lr.sent == 0 || lr.errs != 0 {
		t.Errorf("live driver sent %d updates with %d errors", lr.sent, lr.errs)
	}
}

// TestChurnRingIsStationary: pushing the ring any number of times leaves
// the table as loaded, and it is never more than one prefix short.
func TestChurnRingIsStationary(t *testing.T) {
	b, err := setupNode(5, nodeSpec{scenario: core.ScenarioUpdate, table: tinyScale.table, workers: 1, live: true})
	if err != nil {
		t.Fatal(err)
	}
	d := b.driver
	for i := 0; i < 3*len(d.ring); i++ {
		if err := d.sess.SendUpdate(d.ring[i%len(d.ring)]); err != nil {
			t.Fatal(err)
		}
		d.net.Run(0)
		if n := b.f.Provider.RIB().Prefixes(); n > b.prefixes || n < b.prefixes-1 {
			t.Fatalf("after %d updates the table has %d prefixes, loaded %d", i+1, n, b.prefixes)
		}
	}
	if n := b.f.Provider.RIB().Prefixes(); n != b.prefixes {
		t.Errorf("after whole rings the table has %d prefixes, loaded %d", n, b.prefixes)
	}
}

// TestInputsFollowSeed: the same seed gives the same inputs, another
// seed other ones.
func TestInputsFollowSeed(t *testing.T) {
	if deepPolicy(1, 16) != deepPolicy(1, 16) || deepPolicy(1, 16) == deepPolicy(2, 16) {
		t.Error("deepPolicy does not follow its seed")
	}
	a, b, c := tableRecords(1, 200), tableRecords(1, 200), tableRecords(2, 200)
	if len(a) != 203 || len(c) != 203 {
		t.Fatalf("tableRecords(…, 200) gave %d and %d records, want 203", len(a), len(c))
	}
	same := true
	for i := range a {
		if a[i].Prefix != b[i].Prefix {
			t.Fatal("tableRecords differs between two calls with one seed")
		}
		same = same && a[i].Prefix == c[i].Prefix
	}
	if same {
		t.Error("tableRecords ignores its seed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// TestCompareVerdicts: a +20 % median regresses, a ±3 % one is ok, a
// spread wider than the bound is unresolved, a failed op regresses.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"round_cold_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	set := func(name string, center, jitter float64, failed int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			v := center * (1 + jitter*(float64(i)-4.5)/4.5)
			l := setLine{Workload: "deep_policy", Seed: int64(i), report: report{
				Correct: failed == 0, Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"round_cold_ms": {Value: v, Unit: "ms"}},
			}}
			if err := appendSetLine(path, l); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := set("base", 100, 0.01, 0)
	for _, tc := range []struct {
		name      string
		path      string
		verdict   string
		regressed bool
	}{
		{"plus20", set("plus20", 120, 0.01, 0), "regressed", true},
		{"plus3", set("plus3", 103, 0.01, 0), "ok", false},
		{"minus3", set("minus3", 97, 0.01, 0), "ok", false},
		{"noisy", set("noisy", 105, 0.3, 0), "unresolved", false},
		{"failing", set("failing", 100, 0.01, 1), "regressed", true},
	} {
		var out bytes.Buffer
		regressed, err := compareSets(&out, spec, base, tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var verdicts []string
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
			f := strings.Fields(line)
			verdicts = append(verdicts, f[len(f)-1])
		}
		sort.Strings(verdicts)
		if regressed != tc.regressed || !contains(verdicts, tc.verdict) {
			t.Errorf("%s: regressed=%t verdicts=%v, want regressed=%t with a %q row\n%s", tc.name, regressed, verdicts, tc.regressed, tc.verdict, out.String())
		}
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

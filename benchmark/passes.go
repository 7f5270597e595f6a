package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"dice/internal/config"
	"dice/internal/core"
	"dice/internal/filter"
	"dice/internal/stats"
	"dice/internal/telemetry"
)

// scale sizes the workloads. The benchmark runs at fullScale; the tests
// run the same code at a scale that finishes in milliseconds.
type scale struct {
	table     int // node_online full-table prefixes
	deepTable int // deep_policy table prefixes
	clauses   int // deep_policy customer-filter clauses
	nodes     int // fleet ASes
	targets   int // fleet explore targets
	setups    int // timed set-up repetitions per run
}

var fullScale = scale{table: 20000, deepTable: 256, clauses: 128, nodes: 64, targets: 12, setups: 5}

var workloadNames = []string{"node_online", "deep_policy", "fleet_inproc", "fleet_wire"}

// expectedJSON holds the default seed's snapshot hashes at full scale.
// fleet_inproc and fleet_wire share the "fleet" entry: the two backends
// must render the same round.
//
//go:embed expected.json
var expectedJSON []byte

func expectedSHA(workload string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return "", fmt.Errorf("expected.json: %w", err)
	}
	key := workload
	if strings.HasPrefix(workload, "fleet_") {
		key = "fleet"
	}
	sha, ok := m[key]
	if !ok {
		return "", fmt.Errorf("expected.json has no %q", key)
	}
	return sha, nil
}

// newSetup resolves a workload to its set-up function. Sizing that is the
// benchmark's own (the fleet topology draw) happens here, outside set-up
// time.
func newSetup(name string, seed int64, sc scale) (func() (bench, error), error) {
	nproc := runtime.GOMAXPROCS(0)
	switch name {
	case "node_online":
		sp := nodeSpec{scenario: core.ScenarioUpdate, table: sc.table, workers: 1, live: true}
		return func() (bench, error) { return setupNode(seed, sp) }, nil
	case "deep_policy":
		sp := nodeSpec{scenario: core.ScenarioRouteLeak, table: sc.deepTable, clauses: sc.clauses, workers: nproc}
		return func() (bench, error) { return setupNode(seed, sp) }, nil
	case "fleet_inproc", "fleet_wire":
		spec, err := fleetSpec(seed, sc)
		if err != nil {
			return nil, err
		}
		return func() (bench, error) { return setupFleet(spec, name == "fleet_wire", nproc) }, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// series is a sequence of rounds of one kind: each is timed, held to the
// first one's snapshot and to check, and counted as an operation.
type series struct {
	r     *run
	check func(roundInfo) error
	times stats.Summary // milliseconds
	first roundInfo
}

func (s *series) observe(ri roundInfo, el time.Duration, err error) {
	switch {
	case err != nil:
	case s.times.N() == 0:
		s.first = ri
		fmt.Fprintf(s.r.log, "snapshot_sha=%s\n", ri.sha)
		err = s.check(ri)
	case ri.sha != s.first.sha:
		err = fmt.Errorf("round %d snapshot %s, first round %s", s.times.N()+1, ri.sha, s.first.sha)
	default:
		err = s.check(ri)
	}
	s.r.op(err)
	s.times.Observe(ms(el))
}

func (s *series) run(round func() (roundInfo, error)) {
	t := time.Now()
	ri, err := round()
	s.observe(ri, time.Since(t), err)
}

// runFor runs round back-to-back for d, and at least once.
func (s *series) runFor(d time.Duration, round func() (roundInfo, error)) {
	for end := time.Now().Add(d); s.times.N() == 0 || time.Now().Before(end); {
		s.run(round)
	}
}

// rounds runs round back-to-back for d and returns the series.
func (r *run) rounds(d time.Duration, round func() (roundInfo, error), check func(roundInfo) error) *series {
	s := &series{r: r, check: check}
	s.runFor(d, round)
	return s
}

// sameAs is the check of a series that must repeat another's snapshot.
func sameAs(sha string) func(roundInfo) error {
	return func(ri roundInfo) error {
		if ri.sha != sha {
			return fmt.Errorf("snapshot %s, want %s", ri.sha, sha)
		}
		return nil
	}
}

// coldCheck is check plus the committed hash for the default seed.
func (r *run) coldCheck(b bench) func(roundInfo) error {
	var want string
	var wantErr error
	if r.seed == 1 && r.sc == fullScale {
		want, wantErr = expectedSHA(r.workload)
	}
	return func(ri roundInfo) error {
		if wantErr != nil {
			return wantErr
		}
		if want != "" && ri.sha != want {
			return fmt.Errorf("snapshot %s, expected.json has %s", ri.sha, want)
		}
		return b.check(ri)
	}
}

// warmSeries is ReuseState rounds over one primed state, timed in
// batches: each sample is the mean of up to 20 consecutive rounds (a
// sub-ms round is too noisy singly). Every warm round must issue no
// solver query and repeat the first warm round's snapshot.
type warmSeries struct {
	r     *run
	round func() (roundInfo, error)
	done  func()    // releases the state
	first roundInfo // the first warm round
	batch int
	times stats.Summary // milliseconds per round, one sample per batch
}

// newWarm opens fresh ReuseState, primes it — the priming round is a
// cold round and must repeat coldSHA — and runs the first warm round.
// total is the time the caller means to spend in runFor; it sizes the
// batches so that there are at least 40 of them.
func (r *run) newWarm(b bench, coldSHA string, total time.Duration) (*warmSeries, error) {
	round, done, err := b.warm()
	if err != nil {
		return nil, err
	}
	w := &warmSeries{r: r, round: round, done: done}
	ri, err := round()
	if err == nil && ri.sha != coldSHA {
		err = fmt.Errorf("priming round snapshot %s, cold rounds %s", ri.sha, coldSHA)
	}
	r.op(err)
	pilot := w.one()
	w.batch = int(total / 40 / (pilot + 1))
	if w.batch < 1 {
		w.batch = 1
	}
	if w.batch > 20 {
		w.batch = 20
	}
	return w, nil
}

// one runs and checks one warm round.
func (w *warmSeries) one() time.Duration {
	t := time.Now()
	ri, err := w.round()
	el := time.Since(t)
	switch {
	case err != nil:
	case ri.queries() != 0:
		err = fmt.Errorf("warm round issued %d solver queries", ri.queries())
	case w.first.sha == "":
		w.first = ri
	case ri.sha != w.first.sha:
		err = fmt.Errorf("warm round snapshot %s, first warm round %s", ri.sha, w.first.sha)
	}
	w.r.op(err)
	return el
}

// runFor times warm batches for d, and at least one.
func (w *warmSeries) runFor(d time.Duration) {
	for end := time.Now().Add(d); w.times.N() == 0 || time.Now().Before(end); {
		var sum time.Duration
		for i := 0; i < w.batch; i++ {
			sum += w.one()
		}
		w.times.Observe(ms(sum) / float64(w.batch))
	}
}

const (
	setupSpan = 1500 * time.Millisecond
	sliceSpan = 5 * time.Second
)

// measureEndToEnd is the untraced pass: set-up (repeated), cold rounds,
// warm rounds, peak memory.
func measureEndToEnd(r *run, setup func() (bench, error)) error {
	var (
		b      bench
		setups stats.Summary
	)
	// Set up several times and report the median: one set-up of a few
	// milliseconds is mostly noise, so cheap ones repeat for setupSpan.
	for begin := time.Now(); setups.N() < r.sc.setups || (r.sc == fullScale && time.Since(begin) < setupSpan && setups.N() < 400); {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC()
		t := time.Now()
		nb, err := setup()
		if err != nil {
			return err
		}
		setups.Observe(time.Since(t).Seconds())
		b = nb
	}
	defer b.close()
	r.timing("setup_s", &setups)

	// Cold and warm rounds take turns, slice by slice, so that both see
	// the whole window: the machine's own speed wanders over seconds, and
	// a phase measured in one stretch takes on whatever that stretch had.
	// On node_online the live driver runs beside the cold rounds.
	slices := int(r.window / sliceSpan)
	if slices < 1 {
		slices = 1
	}
	coldSpan, warmSpan := r.window*7/10, r.window*3/10
	cold := &series{r: r, check: r.coldCheck(b)}
	var warm *warmSeries
	for i := 0; i < slices; i++ {
		runtime.GC()
		var lr *liveRun
		if d := b.live(); d != nil {
			lr = d.start(false)
		}
		cold.runFor(coldSpan/time.Duration(slices), b.cold)
		if lr != nil {
			lr.halt()
			r.attempted += lr.sent
			for i := 0; i < lr.errs; i++ {
				r.fail(fmt.Errorf("live update send failed"))
			}
		}

		runtime.GC()
		if warm == nil {
			var err error
			if warm, err = r.newWarm(b, cold.first.sha, warmSpan); err != nil {
				return err
			}
			defer warm.done()
		}
		warm.runFor(warmSpan / time.Duration(slices))
	}
	r.timing("round_cold_ms", &cold.times)
	r.timing("round_warm_ms", &warm.times)

	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return nil
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// measureLayers is the traced pass: a shorter run that attributes the
// round to layers. End-to-end numbers never come from here.
func measureLayers(r *run, setup func() (bench, error), traceOut string) error {
	tracer := telemetry.NewTracer()
	runtime.GC()
	b, err := setup()
	if err != nil {
		return err
	}
	defer b.close()
	w := r.window

	// node_online's live phases: the driver alone, then beside real
	// rounds, whose lock holds are the checkpoint cost the node feels.
	if nb, ok := b.(*nodeBench); ok && nb.driver != nil {
		lr := nb.driver.start(true)
		time.Sleep(w / 10)
		lr.halt()
		idle := lr.perSecond()
		r.attempted += lr.sent
		runtime.GC()

		nb.lock.holds = nil
		lr = nb.driver.start(true)
		r.rounds(w*2/10, b.cold, r.coldCheck(b))
		lr.halt()
		r.attempted += lr.sent
		var seedHold, cloneHold, lat stats.Summary
		for i := 0; i+1 < len(nb.lock.holds); i += 2 {
			seedHold.Observe(ms(nb.lock.holds[i]))
			cloneHold.Observe(ms(nb.lock.holds[i+1]))
		}
		for _, l := range lr.latencyMS {
			lat.Observe(l)
		}
		r.timing("core.seed_hold_ms", &seedHold)
		r.timing("core.checkpoint_hold_ms", &cloneHold)
		r.set("core.live_updates_idle_per_s", idle)
		r.set("core.live_updates_per_s", lr.perSecond())
		r.set("core.live_impact_pct", 100*(1-lr.perSecond()/idle))
		r.set("core.live_update_p999_ms", lat.Quantile(0.999))
		runtime.GC()
	}

	// The wire stack first, then the in-process backend on the same
	// topology: the rest of the pass attributes the in-process round.
	plainRound := b.cold
	fb, _ := b.(*fleetBench)
	wire := fb != nil && fb.coord != nil
	var wireBase *series
	if wire {
		if wireBase, err = wireLayers(r, fb, tracer); err != nil {
			return err
		}
		plainRound = func() (roundInfo, error) { return inprocRound(fb.fe) }
	}
	p := b.pieces()

	// Untraced rounds and traced rounds recomposed from public pieces,
	// in turn, so that drift falls on both alike. The untraced ones are
	// the source of the per-round counts.
	runtime.GC()
	sp := &spans{}
	plain := &series{r: r, check: r.coldCheck(b)}
	traced := &series{r: r}
	var m0, m1 runtime.MemStats
	var mallocs, allocBytes uint64
	gc0, cpu0 := gcCPU()
	for end := time.Now().Add(w * 4 / 10); plain.times.N() == 0 || time.Now().Before(end); {
		runtime.ReadMemStats(&m0)
		plain.run(plainRound)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc

		traced.check = sameAs(plain.first.sha)
		ri, total, err := tracedRound(sp, traced.times.N()+1, p)
		traced.observe(ri, total, err)
		if err != nil {
			return err
		}
	}
	gc1, cpu1 := gcCPU()
	first, n := plain.first, float64(plain.times.N())
	fmt.Fprintf(r.log, "in-process rounds: untraced median %.4g ms, traced %.4g ms, %d each\n", plain.times.Median(), traced.times.Median(), plain.times.N())
	if wire {
		r.set("dist.wire_overhead_x", wireBase.times.Median()/plain.times.Median())
		fmt.Fprintf(r.log, "wire_overhead_x = %.4g ms over the wire / %.4g ms in-process\n", wireBase.times.Median(), plain.times.Median())
	} else {
		r.set("trace_overhead_pct", 100*(traced.times.Median()/plain.times.Median()-1))
	}
	r.set("core.allocs_per_round", float64(mallocs)/n)
	r.set("core.alloc_mb_per_round", float64(allocBytes)/n/(1<<20))
	r.set("core.gc_cpu_pct", 100*(gc1-gc0)/(cpu1-cpu0))
	r.set("solver.queries_per_round", float64(first.queries()))
	if q := first.queries(); q > 0 {
		r.set("solver.cache_hit_ratio", float64(first.cacheHits)/float64(q))
	}
	if a := first.solverSat + first.solverUnsat; a > 0 {
		r.set("solver.sat_ratio", float64(first.solverSat)/float64(a))
	}
	r.set("concolic.runs_per_round", float64(first.runs))
	r.set("concolic.paths_per_round", float64(first.paths))
	r.set("concolic.path_yield", float64(first.paths)/float64(first.runs))
	r.set("core.findings_per_round", float64(first.findings))
	r.set("core.witnesses_per_round", float64(first.witnesses))
	r.set("core.violations_per_round", float64(first.violate))
	r.set("netsim.deliveries_per_round", float64(first.steps))

	explore, witness := sp.perRound(spanExplore), sp.perRound(spanCheckWitness)
	r.timing("core.prepare_ms", sp.perRound(spanPrepare))
	r.timing("concolic.explore_ms", explore)
	r.timing("core.analyze_ms", sp.perRound(spanAnalyze))
	r.timing("core.check_witness_ms", witness)
	if q := first.queries(); q > 0 {
		r.set("concolic.negation_us", 1000*explore.Median()/float64(q))
	}
	if first.steps > 0 {
		r.set("netsim.delivery_us", 1000*witness.Median()/float64(first.steps))
	}
	share := sp.selfShare()
	r.set("core.self_clone_pct", 100*share[spanClone])
	r.set("core.self_explore_pct", 100*share[spanExplore])
	r.set("core.self_analyze_pct", 100*share[spanAnalyze])
	r.set("core.self_check_witness_pct", 100*share[spanCheckWitness])

	// One warm round's skipped negations. (fleet_wire's agents keep
	// their exploration state across coordinators, so wireLayers already
	// took this from the one fresh warm sequence they have.)
	if !wire {
		warm, err := r.newWarm(b, first.sha, 0)
		if err != nil {
			return err
		}
		warm.done()
		r.set("concolic.skipped_negations_per_round", float64(warm.first.skipped))
	}

	// Worker scaling: the explore phase alone at one worker and at nproc.
	var one, all stats.Summary
	for i := 0; i < 5; i++ {
		for _, leg := range []struct {
			workers int
			into    *stats.Summary
		}{{1, &one}, {runtime.GOMAXPROCS(0), &all}} {
			q := p
			q.workers = leg.workers
			scratch := &spans{}
			if _, _, err := tracedRound(scratch, 0, q); err != nil {
				return err
			}
			leg.into.Observe(scratch.perRound(spanExplore).Median())
		}
	}
	r.set("concolic.worker_scaling_x", one.Median()/all.Median())

	// Set-up's parts.
	switch x := b.(type) {
	case *nodeBench:
		r.set("trace.generate_ms", ms(x.traceGen))
		r.set("core.fabric_build_ms", ms(x.fabricBuild))
		r.set("core.load_table_ms", ms(x.loadTable))
	case *fleetBench:
		r.set("topo.generate_ms", ms(x.topoGen))
		r.set("core.fabric_build_ms", ms(x.fabricBuild))
		r.set("core.shadow_ms", perOp(9, 1, func() {
			if _, err := x.fe.Fabric.Shadow(); err != nil {
				panic(err)
			}
		})/1e6)
	}

	layerProbes(r, p, traced.first, policyParser(b, p))

	sp.export(tracer)
	return tracer.WriteFile(traceOut)
}

// policyParser returns a function parsing the primary target's policy
// from source: the customer filter on Fig. 2, the node's whole
// configuration on a generated topology.
func policyParser(b bench, p roundPieces) func() error {
	if nb, ok := b.(*nodeBench); ok {
		return func() error { _, err := filter.Parse(nb.filter); return err }
	}
	fb := b.(*fleetBench)
	for _, n := range fb.topo.Nodes {
		if n.Name == p.targets[0].Node {
			src := strings.Join(n.Config, "\n")
			return func() error { _, err := config.Parse(src); return err }
		}
	}
	return func() error { return fmt.Errorf("target node %q not in topology", p.targets[0].Node) }
}

// perRound sums, per round, the spans of one name (milliseconds).
func (s *spans) perRound(name string) *stats.Summary {
	sums := map[int]time.Duration{}
	for _, sp := range s.all {
		if sp.name == name {
			sums[sp.round] += sp.dur
		}
	}
	var out stats.Summary
	for _, d := range sums {
		out.Observe(ms(d))
	}
	return &out
}

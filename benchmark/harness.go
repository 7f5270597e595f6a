package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dice/internal/stats"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result — the last line of standard output, and one
// line of a -out set file.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef declares one metric; BENCHMARK.json lists the same names and
// units (a test holds the two together).
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"round_cold_ms", "ms"},
	{"round_warm_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayerDefs = []metricDef{
	{"sym.intern_ns", "ns"}, {"sym.fingerprint_ns", "ns"}, {"sym.eval_ns", "ns"}, {"sym.interned_nodes", "count"},
	{"solver.query_us", "us"}, {"solver.analyze_us", "us"}, {"solver.queries_per_round", "count"},
	{"solver.cache_hit_ratio", "ratio"}, {"solver.sat_ratio", "ratio"},
	{"concolic.explore_ms", "ms"}, {"concolic.negation_us", "us"}, {"concolic.runs_per_round", "count"},
	{"concolic.paths_per_round", "count"}, {"concolic.path_yield", "ratio"},
	{"concolic.skipped_negations_per_round", "count"}, {"concolic.worker_scaling_x", "x"},
	{"filter.run_ns", "ns"}, {"filter.parse_us", "us"},
	{"rib.insert_ns", "ns"}, {"rib.lookup_ns", "ns"}, {"rib.walk_ms", "ms"},
	{"rib.overlay_create_ns", "ns"}, {"rib.overlay_insert_ns", "ns"},
	{"router.clone_ms", "ms"}, {"router.clone_allocs", "count"}, {"router.clone_cow_us", "us"},
	{"router.handle_update_us", "us"},
	{"checkpoint.take_ms", "ms"}, {"checkpoint.pages", "count"}, {"checkpoint.unique_pct", "%"},
	{"checkpoint.clone_overhead_pct", "%"},
	{"bgp.encode_ns", "ns"}, {"bgp.decode_ns", "ns"},
	{"netsim.deliveries_per_round", "count"}, {"netsim.delivery_us", "us"},
	{"core.prepare_ms", "ms"}, {"core.analyze_ms", "ms"}, {"core.check_witness_ms", "ms"}, {"core.shadow_ms", "ms"},
	{"core.findings_per_round", "count"}, {"core.witnesses_per_round", "count"}, {"core.violations_per_round", "count"},
	{"core.allocs_per_round", "count"}, {"core.alloc_mb_per_round", "MB"}, {"core.gc_cpu_pct", "%"},
	{"core.checkpoint_hold_ms", "ms"}, {"core.seed_hold_ms", "ms"},
	{"core.live_updates_per_s", "1/s"}, {"core.live_updates_idle_per_s", "1/s"},
	{"core.live_impact_pct", "%"}, {"core.live_update_p999_ms", "ms"},
	{"core.fabric_build_ms", "ms"}, {"core.load_table_ms", "ms"},
	{"core.self_clone_pct", "%"}, {"core.self_explore_pct", "%"}, {"core.self_analyze_pct", "%"},
	{"core.self_check_witness_pct", "%"},
	{"dist.connect_ms", "ms"}, {"dist.rpc_calls_per_round", "count"}, {"dist.rpc_p50_us", "us"},
	{"dist.check_witnesses_ms", "ms"}, {"dist.wire_bytes_per_witness", "B"},
	{"dist.wire_bytes_per_round", "B"}, {"dist.warm_wire_bytes_per_round", "B"}, {"dist.wire_overhead_x", "x"},
	{"topo.generate_ms", "ms"}, {"trace.generate_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// run accumulates one benchmark process's operations and metrics.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	sc       scale
	traced   bool        // the per-layer pass, not the end-to-end one
	defs     []metricDef // the metrics this pass reports
	log      io.Writer   // human-readable metric lines

	attempted, failed int
	failures          []string // first few failure messages
	metrics           map[string]metric
}

func newRun(workload string, seed int64, sc scale, window time.Duration, traced bool, log io.Writer) *run {
	r := &run{workload: workload, seed: seed, sc: sc, window: window, traced: traced, defs: endToEndDefs, log: log, metrics: map[string]metric{}}
	if traced {
		r.defs = perLayerDefs
	}
	return r
}

// op counts one attempted operation; a non-nil err fails it.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failed operation that was already counted as attempted.
func (r *run) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
	fmt.Fprintf(r.log, "FAILED op: %v\n", err)
}

// set records a metric. A name outside the pass's declared set is a
// harness bug: the driver refuses results whose names drift from
// BENCHMARK.json.
func (r *run) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.metrics[name] = metric{Value: v, Unit: d.unit}
			fmt.Fprintf(r.log, "%-40s %14.6g %s\n", name, v, d.unit)
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// timing records a timing metric as its median and prints the tail: the
// highest percentile that still has at least ten samples beyond it.
func (r *run) timing(name string, s *stats.Summary) {
	if s.N() == 0 {
		return
	}
	r.set(name, s.Median())
	q := 1 - 10/float64(s.N())
	if q < 0.5 {
		q = 0.5
	}
	fmt.Fprintf(r.log, "%-40s tail=%.6g tail_pct=%.1f n=%d\n", "", s.Quantile(q), 100*q, s.N())
}

// finish zero-fills the declared metrics this workload has no source
// for (a single node has no wire; a fleet has no live driver) and
// returns the result.
func (r *run) finish() report {
	for _, d := range r.defs {
		if _, ok := r.metrics[d.name]; !ok {
			r.metrics[d.name] = metric{Unit: d.unit}
		}
	}
	return report{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// shaLines hashes a canonical snapshot rendering.
func shaLines(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

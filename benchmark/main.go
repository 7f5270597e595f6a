// Command benchmark is the one benchmark of DiCE-in-Go: four workloads,
// the paper's end-to-end quantities, and a per-layer ladder under them.
// See README.md. One process runs one workload:
//
//	benchmark --workload node_online --seed 1 --seconds 20 --trace 0
//	benchmark -compare A.jsonl B.jsonl
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it runs the shorter traced pass and reports the
// per-layer ones. The last line of standard output is the result as one
// JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "one of node_online, deep_policy, fleet_inproc, fleet_wire")
		seed     = fs.Int64("seed", 1, "every input is generated from this")
		seconds  = fs.Float64("seconds", 25, "measuring window")
		traced   = fs.Int("trace", 0, "1: the traced per-layer pass instead of the end-to-end pass")
		out      = fs.String("out", "", "append the result line to this set file (the input of -compare)")
		traceDir = fs.String("trace-dir", "benchmark/out", "where --trace 1 writes its Chrome trace_event file")
		deadline = fs.Duration("deadline", 170*time.Second, "exit non-zero by itself if the run is not done by then")
		compare  = fs.Bool("compare", false, "compare two set files: -compare A B")
		spec     = fs.String("spec", "BENCHMARK.json", "the bounds -compare applies")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.jsonl B.jsonl")
			return 2
		}
		regressed, err := compareSets(stdout, *spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	// A run that overstays exits by itself, with nothing left in flight
	// for a supervisor to kill.
	time.AfterFunc(*deadline, func() {
		fmt.Fprintf(stderr, "benchmark: %s not done after %s\n", *workload, *deadline)
		os.Exit(3)
	})

	r := newRun(*workload, *seed, fullScale, time.Duration(*seconds*float64(time.Second)), *traced != 0, stdout)
	rep, err := r.execute(filepath.Join(*traceDir, "trace_"+*workload+".json"))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "attempted=%d failed=%d\n%s\n", rep.Attempted, rep.Failed, line)
	if *out != "" {
		if err := appendSetLine(*out, setLine{Workload: *workload, Seed: *seed, Trace: *traced, report: rep}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// execute runs the pass and then holds the process to its goroutine
// baseline: every coordinator, agent connection and driver it started
// must have been closed and joined.
func (r *run) execute(traceFile string) (report, error) {
	baseline := runtime.NumGoroutine()
	setup, err := newSetup(r.workload, r.seed, r.sc)
	if err != nil {
		return report{}, err
	}
	if !r.traced {
		err = measureEndToEnd(r, setup)
	} else if err = os.MkdirAll(filepath.Dir(traceFile), 0o755); err == nil {
		err = measureLayers(r, setup, traceFile)
	}
	if err != nil {
		return report{}, err
	}
	// Closed pipes unwind their server goroutines asynchronously.
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		r.op(fmt.Errorf("%d goroutines left running, %d at start", n, baseline))
	}
	return r.finish(), nil
}

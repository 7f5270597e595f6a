package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// setLine is one run in a set file (JSON lines, written by -out).
type setLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	report
}

func appendSetLine(path string, l setLine) error {
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSet(path string) ([]setLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []setLine
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l setLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		lines = append(lines, l)
	}
	return lines, sc.Err()
}

// boundSpec is the part of BENCHMARK.json -compare applies.
type boundSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first, second and third quartile of sorted values
// the way Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is what the driver computes spreads with. One value is
// its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside 0..4 at a clamped end: extrapolates, as Python does
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// compareSets prints one row per (metric, workload) pair of the two sets
// of untraced runs — A the base, B the candidate — and reports whether
// any pair regressed: B's median worse than A's by more than the
// metric's bound. A pair whose run-to-run spread (interquartile range
// over median, the wider of the two sets) exceeds the bound is
// unresolved, not unchanged — unless every run of B reads better than
// every run of A. Any failed operation in B regresses its workload.
func compareSets(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec boundSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	type side struct {
		values            map[string][]float64
		attempted, failed int
	}
	collect := func(lines []setLine) map[string]*side {
		m := map[string]*side{}
		for _, l := range lines {
			if l.Trace != 0 {
				continue
			}
			s := m[l.Workload]
			if s == nil {
				s = &side{values: map[string][]float64{}}
				m[l.Workload] = s
			}
			s.attempted += l.Attempted
			s.failed += l.Failed
			for name, mv := range l.Metrics {
				s.values[name] = append(s.values[name], mv.Value)
			}
		}
		return m
	}
	sa, sb := collect(a), collect(b)

	regressed := false
	fmt.Fprintf(w, "%-16s %-13s %12s %12s %16s %8s %6s  %s\n", "metric", "workload", "A", "B", "B/A (base A)", "spread", "bound", "verdict")
	for _, wl := range workloadNames {
		if sa[wl] == nil || sb[wl] == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := sa[wl].values[m.Name], sb[wl].values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sort.Float64s(va)
			sort.Float64s(vb)
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spread := (a3 - a1) / a2
			if s := (b3 - b1) / b2; s > spread {
				spread = s
			}
			worse, allBetter := b2/a2-1, vb[len(vb)-1] < va[0]
			if m.Better == "higher" {
				worse, allBetter = a2/b2-1, vb[0] > va[len(va)-1]
			}
			verdict := "ok"
			switch {
			case spread > m.Bound && !allBetter:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-13s %12.6g %12.6g %8.4f (%.4g) %7.1f%% %5.0f%%  %s\n",
				m.Name, wl, a2, b2, b2/a2, a2, 100*spread, 100*m.Bound, verdict)
		}
		verdict := "ok"
		if sb[wl].failed > 0 {
			verdict = "regressed"
			regressed = true
		}
		fmt.Fprintf(w, "%-16s %-13s %12s %12s %35s  %s\n", "failed_ops", wl,
			fmt.Sprintf("%d/%d", sa[wl].failed, sa[wl].attempted), fmt.Sprintf("%d/%d", sb[wl].failed, sb[wl].attempted), "", verdict)
	}
	return regressed, nil
}

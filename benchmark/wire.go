package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"dice/internal/core"
	"dice/internal/dist"
	"dice/internal/stats"
	"dice/internal/telemetry"
)

// wireLayers measures the dist stack on fleet_wire's traced pass: warm
// rounds (the agents' one fresh warm sequence), bytes per round, a
// 16-witness storm, and plain rounds in turn with rounds of a coordinator
// instrumented by WithTelemetry / WithTracer. It leaves the in-process
// backend on the same topology in fb.fe — the base of wire_overhead_x —
// and returns the plain wire rounds.
func wireLayers(r *run, fb *fleetBench, tracer *telemetry.Tracer) (*series, error) {
	r.set("dist.connect_ms", ms(fb.connectTime))

	// Plain and instrumented rounds in turn.
	inst, err := fb.connect(false, tracer)
	if err != nil {
		return nil, err
	}
	plain := &series{r: r, check: r.coldCheck(fb)}
	traced := &series{r: r}
	for end := time.Now().Add(r.window * 3 / 10); plain.times.N() == 0 || time.Now().Before(end); {
		plain.run(fb.cold)
		traced.check = sameAs(plain.first.sha)
		traced.run(func() (roundInfo, error) { return wireRound(inst) })
	}
	inst.Close()
	sha := plain.first.sha
	r.set("trace_overhead_pct", 100*(traced.times.Median()/plain.times.Median()-1))
	calls, p50, err := rpcSpans(tracer)
	if err != nil {
		return nil, err
	}
	r.set("dist.rpc_calls_per_round", float64(calls)/float64(traced.times.N()))
	r.set("dist.rpc_p50_us", p50)

	// Warm rounds: skipped negations, and bytes once nothing is explored.
	round, done, err := fb.warm()
	if err != nil {
		return nil, err
	}
	ri, err := round()
	if err == nil && ri.sha != sha {
		err = fmt.Errorf("priming round snapshot %s, cold rounds %s", ri.sha, sha)
	}
	r.op(err)
	const warmRounds = 5
	b0 := fb.wireBytes.Load()
	for i := 0; i < warmRounds; i++ {
		ri, err = round()
		if err == nil && ri.queries() != 0 {
			err = fmt.Errorf("warm round issued %d solver queries", ri.queries())
		}
		r.op(err)
	}
	r.set("dist.warm_wire_bytes_per_round", float64(fb.wireBytes.Load()-b0)/warmRounds)
	r.set("concolic.skipped_negations_per_round", float64(ri.skipped))
	done()

	// Bytes per round over fixed round indices 1..10 of a fresh
	// coordinator: per-round bytes creep up with the round number.
	c, err := fb.connect(false, nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	const byteRounds = 10
	b0 = fb.wireBytes.Load()
	var res *dist.RoundResult
	for i := 0; i < byteRounds; i++ {
		if res, err = c.Round(); err != nil {
			return nil, err
		}
		r.op(sameAs(sha)(wireInfo(res)))
	}
	r.set("dist.wire_bytes_per_round", float64(fb.wireBytes.Load()-b0)/byteRounds)

	// A 16-witness storm: the witnesses are the round's own.
	var specs []dist.WitnessSpec
	for _, tr := range res.Targets {
		for _, f := range tr.Findings {
			if f.Witness != nil && len(specs) < 16 {
				specs = append(specs, dist.WitnessSpec{Node: tr.Node, Peer: tr.Peer, Update: f.Witness})
			}
		}
	}
	const stormReps = 5
	b0 = fb.wireBytes.Load()
	r.set("dist.check_witnesses_ms", perOp(stormReps, 1, func() {
		_, err := c.CheckWitnesses(specs)
		r.op(err)
	})/1e6)
	r.set("dist.wire_bytes_per_witness", float64(fb.wireBytes.Load()-b0)/float64(stormReps*len(specs)))

	fb.fe, err = core.NewFederatedExperiment(fb.topo, fleetOptions(fb.workers, false))
	return plain, err
}

// rpcSpans reads the client-side RPC spans dist recorded into the
// tracer (tracks named "rpc/<node>"): their count and median duration
// in microseconds.
func rpcSpans(tracer *telemetry.Tracer) (int, float64, error) {
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		return 0, 0, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  float64           `json:"dur"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return 0, 0, fmt.Errorf("chrome trace: %w", err)
	}
	rpcTrack := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && strings.HasPrefix(ev.Args["name"], "rpc/") {
			rpcTrack[ev.Tid] = true
		}
	}
	var durs stats.Summary
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && rpcTrack[ev.Tid] {
			durs.Observe(ev.Dur)
		}
	}
	return durs.N(), durs.Median(), nil
}

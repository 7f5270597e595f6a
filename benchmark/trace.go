package main

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/netsim"
	"dice/internal/router"
	"dice/internal/telemetry"
)

// Span names: the layer boundaries a round crosses.
const (
	spanRound        = "round"
	spanPrepare      = "core.prepare"
	spanClone        = "router.clone"
	spanExplore      = "concolic.explore"
	spanAnalyze      = "core.analyze"
	spanCheckWitness = "core.check_witness"
)

// span is one completed measurement: name, start, end, the span that
// caused it (0 = none) and the round they all belong to.
type span struct {
	id, parent, round int
	name              string
	start             time.Time
	dur               time.Duration
}

// spans keeps the traced pass's spans in memory, for self-time analysis.
type spans struct {
	all []span
}

// add records a span and returns its id.
func (s *spans) add(parent, round int, name string, start time.Time, dur time.Duration) int {
	id := len(s.all) + 1
	s.all = append(s.all, span{id: id, parent: parent, round: round, name: name, start: start, dur: dur})
	return id
}

// export copies the spans into internal/telemetry's tracer, which writes
// the Chrome trace_event file (together with the RPC spans dist records
// into the same tracer on fleet_wire).
func (s *spans) export(tr *telemetry.Tracer) {
	for _, sp := range s.all {
		tr.Add("benchmark", sp.name, sp.start, sp.dur,
			telemetry.A("id", strconv.Itoa(sp.id)), telemetry.A("parent", strconv.Itoa(sp.parent)), telemetry.A("round", strconv.Itoa(sp.round)))
	}
}

// timed runs fn under a span.
func (s *spans) timed(parent, round int, name string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	dur := time.Since(start)
	return s.add(parent, round, name, start, dur), dur
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover.
func (s *spans) selfTimes() map[int]time.Duration {
	children := make(map[int][]span)
	for _, sp := range s.all {
		children[sp.parent] = append(children[sp.parent], sp)
	}
	self := make(map[int]time.Duration, len(s.all))
	for _, sp := range s.all {
		kids := children[sp.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
		covered, edge := time.Duration(0), sp.start
		for _, k := range kids {
			from, to := k.start, k.start.Add(k.dur)
			if from.Before(edge) {
				from = edge
			}
			if end := sp.start.Add(sp.dur); to.After(end) {
				to = end
			}
			if to.After(from) {
				covered += to.Sub(from)
				edge = to
			}
		}
		self[sp.id] = sp.dur - covered
	}
	return self
}

// selfShare returns, per span name, total self time as a share of total
// round time, over all traced rounds.
func (s *spans) selfShare() map[string]float64 {
	self := s.selfTimes()
	byName := make(map[string]time.Duration)
	var rounds time.Duration
	for _, sp := range s.all {
		byName[sp.name] += self[sp.id]
		if sp.name == spanRound {
			rounds += sp.dur
		}
	}
	share := make(map[string]float64, len(byName))
	for name, d := range byName {
		share[name] = float64(d) / float64(rounds)
	}
	return share
}

// roundPieces is what a round is made of — the live routers, the
// resolved targets and the engine settings — enough to recompose it
// from the public calls the backends themselves share.
type roundPieces struct {
	routers map[string]*router.Router
	targets []core.ResolvedTarget
	engine  concolic.Options
	workers int
	// fe checks witnesses across the fabric; nil on a single node, whose
	// round ends at Analyze.
	fe *core.FederatedExperiment
	// lock and driver are the live node's state lock and update driver,
	// where the workload has them (node_online).
	lock   sync.Locker
	driver *liveDriver
}

// tracedRound runs one cold round recomposed from public pieces, with a
// span around each: core.PrepareTarget (its checkpoint clone attributed
// by a router.Clone probe taken just before the round, since
// PrepareTarget does not expose the clone it takes), concolic.ExploreFleet,
// TargetPrep.Analyze, and FederatedExperiment.CheckWitness per witness.
// It must produce the snapshot Round() / ExploreScenario produce.
func tracedRound(s *spans, round int, p roundPieces) (roundInfo, time.Duration, error) {
	// Probe clones first, outside the round, so the round pays for one
	// checkpoint per target exactly as the untraced round does.
	probes := make([]time.Duration, len(p.targets))
	for i, tg := range p.targets {
		t := time.Now()
		p.routers[tg.Node].Clone(netsim.NewCaptureSink())
		probes[i] = time.Since(t)
	}

	var (
		ri     roundInfo
		result = &core.FederatedResult{}
		err    error
	)
	start := time.Now()
	rid := s.add(0, round, spanRound, start, 0) // duration patched below
	boundary := uint32(0)
	if p.fe != nil {
		if boundary, err = p.fe.Topo.BoundaryCommunity(); err != nil {
			return ri, 0, err
		}
	}

	type prep struct {
		*core.TargetPrep
		slot int
	}
	var preps []prep
	var members []concolic.FleetMember
	for i, tg := range p.targets {
		slot := len(result.Targets)
		result.Targets = append(result.Targets, core.FederatedTargetResult{Node: tg.Node, Peer: tg.Peer, Scenario: tg.Scenario})
		var tp *core.TargetPrep
		pid, dur := s.timed(rid, round, spanPrepare, func() {
			tp, err = core.PrepareTarget(p.routers[tg.Node], tg, p.engine, nil, false)
		})
		if err != nil {
			var seedErr *core.SeedUnavailableError
			if errors.As(err, &seedErr) && !tg.Explicit {
				result.Targets[slot].Err = seedErr.Err
				continue
			}
			return ri, 0, fmt.Errorf("%s/%s: %w", tg.Node, tg.Peer, err)
		}
		clone := probes[i]
		if clone > dur {
			clone = dur
		}
		s.add(pid, round, spanClone, s.all[pid-1].start, clone)
		preps = append(preps, prep{tp, slot})
		members = append(members, concolic.FleetMember{ID: tg.Node, Engine: tp.Engine})
	}

	var reports []*concolic.Report
	s.timed(rid, round, spanExplore, func() { reports = concolic.ExploreFleet(members, p.workers) })

	type witness struct {
		node, peer string
		update     *bgp.Update
	}
	var witnesses []witness
	seen := map[string]bool{}
	for i, pr := range preps {
		tg := pr.Target
		var r *core.Result
		s.timed(rid, round, spanAnalyze, func() {
			r = pr.Analyze(p.routers[tg.Node], p.engine, boundary, reports[i])
		})
		result.Targets[pr.slot].Result = r
		ri.addReport(reports[i])
		ri.addFindings(r.Findings)
		if p.fe == nil {
			continue
		}
		for _, wr := range pr.WitnessRefs(r) {
			if key := core.WitnessKey(tg.Node, tg.Peer, wr.Update); !seen[key] {
				seen[key] = true
				r.Findings[wr.Finding].Witness = wr.Update
				witnesses = append(witnesses, witness{tg.Node, tg.Peer, wr.Update})
			}
		}
	}

	for _, w := range witnesses {
		var out *core.WitnessOutcome
		s.timed(rid, round, spanCheckWitness, func() { out, err = p.fe.CheckWitness(w.node, w.peer, w.update) })
		if err != nil {
			return ri, 0, err
		}
		result.WitnessesInjected++
		result.PropagationSteps += out.Steps
		result.Violations = append(result.Violations, out.Violations...)
	}
	total := time.Since(start)
	s.all[rid-1].dur = total

	if p.fe == nil {
		tg := p.targets[0]
		ri.sha = shaLines(core.SnapshotTarget(tg.Node, tg.Peer, tg.Scenario, "", result.Targets[0].Result.Findings))
	} else {
		ri.sha = shaLines(result.Snapshot())
		ri.witnesses, ri.steps, ri.violate = result.WitnessesInjected, result.PropagationSteps, len(result.Violations)
	}
	return ri, total, nil
}

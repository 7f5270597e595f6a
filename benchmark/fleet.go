package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/dist"
	"dice/internal/telemetry"
	"dice/internal/topo"
)

// Fleet rounds inject every witness. The default cap of 16 keeps whichever
// findings exploration happened to discover first, and with more than
// one worker that order is schedule-dependent: sizing saw the distributed
// round's snapshot differ in about 3 % of rounds under the cap. An
// uncapped round is deterministic, so PolicyClauses is what sizes the
// witness count instead (2 findings per target).
const (
	fleetMaxWitnesses  = 1 << 20
	fleetPolicyClauses = 1
	fleetMaxRuns       = 1000
)

// Propagation work per round varies ±20 % with the seed's topology draw
// (5.7k–8.5k deliveries over 16 seeds), which would drown a 10 % bound.
// fleetTopology therefore keeps the first draw whose sizing round lands
// inside this band, so every seed is the same amount of work.
const (
	fleetStepsLo = 6700
	fleetStepsHi = 7300
)

func fleetOptions(workers int, reuse bool) core.FederatedOptions {
	return core.FederatedOptions{
		Engine:       concolic.Options{MaxRuns: fleetMaxRuns},
		Workers:      workers,
		MaxWitnesses: fleetMaxWitnesses,
		ReuseState:   reuse,
	}
}

// fleetSpec picks the seed's AS topology: successive draws of
// topo.Generate from seeds derived from seed, until one's round does a
// stationary amount of propagation work. Reduced scales take the first
// draw; the band is sized for the full one.
func fleetSpec(seed int64, sc scale) (topo.Spec, error) {
	for draw := int64(0); draw < 64; draw++ {
		spec := topo.Spec{Seed: seed*64 + draw, Nodes: sc.nodes, ExploreTargets: sc.targets, PolicyClauses: fleetPolicyClauses}
		if sc != fullScale {
			return spec, nil
		}
		t, _, err := topo.Generate(spec)
		if err != nil {
			return spec, err
		}
		fe, err := core.NewFederatedExperiment(t, fleetOptions(1, false))
		if err != nil {
			return spec, err
		}
		res, err := fe.Round()
		if err != nil {
			return spec, err
		}
		if res.PropagationSteps >= fleetStepsLo && res.PropagationSteps <= fleetStepsHi {
			return spec, nil
		}
	}
	return topo.Spec{}, fmt.Errorf("no topology draw for seed %d does %d–%d deliveries per round", seed, fleetStepsLo, fleetStepsHi)
}

// fleetBench is a federated workload over one generated topology:
// in-process (fleet_inproc) or through the dist wire stack over loopback
// pipes (fleet_wire).
type fleetBench struct {
	topo    *core.Topology
	workers int

	// In-process backend. fleet_wire builds it too, in the traced pass
	// only: it is the base of wire_overhead_x and the source of the
	// per-layer numbers the wire hides.
	fe *core.FederatedExperiment

	// Wire backend (nil in-process).
	agents    map[string]*dist.Agent
	coord     *dist.Coordinator
	wireBytes atomic.Int64 // both directions, all connections

	topoGen, fabricBuild, connectTime time.Duration
}

func setupFleet(spec topo.Spec, wire bool, workers int) (*fleetBench, error) {
	start := time.Now()
	t, _, err := topo.Generate(spec)
	if err != nil {
		return nil, err
	}
	b := &fleetBench{topo: t, workers: workers, topoGen: time.Since(start)}
	start = time.Now()
	if !wire {
		fe, err := core.NewFederatedExperiment(t, fleetOptions(workers, false))
		if err != nil {
			return nil, err
		}
		b.fe = fe
		b.fabricBuild = time.Since(start)
		return b, nil
	}
	agents, err := dist.NewSharedAgents(t)
	if err != nil {
		return nil, err
	}
	b.agents = agents
	b.fabricBuild = time.Since(start)
	start = time.Now()
	if b.coord, err = b.connect(false, nil); err != nil {
		return nil, err
	}
	b.connectTime = time.Since(start)
	return b, nil
}

// countingConn tallies every byte crossing one loopback pipe, counted
// once on the coordinator side.
type countingConn struct {
	io.ReadWriteCloser
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	c.n.Add(int64(n))
	return n, err
}

type countingDialer struct {
	agent *dist.Agent
	n     *atomic.Int64
}

func (d countingDialer) Dial() (io.ReadWriteCloser, error) {
	conn, err := dist.Loopback{Agent: d.agent}.Dial()
	if err != nil {
		return nil, err
	}
	return countingConn{ReadWriteCloser: conn, n: d.n}, nil
}

// connect opens a fresh coordinator over the shared agents: default
// (newest) wire version, no injected latency. A non-nil tracer turns on
// the client-side RPC spans and counters dist already exports.
func (b *fleetBench) connect(reuse bool, tracer *telemetry.Tracer) (*dist.Coordinator, error) {
	dialers := make([]dist.Dialer, 0, len(b.topo.Nodes))
	for _, n := range b.topo.Nodes {
		dialers = append(dialers, countingDialer{agent: b.agents[n.Name], n: &b.wireBytes})
	}
	var copts []dist.ConnOption
	if tracer != nil {
		copts = append(copts, dist.WithTelemetry(dist.NewMetrics(telemetry.NewRegistry())), dist.WithTracer(tracer))
	}
	return dist.Connect(b.topo, fleetOptions(b.workers, reuse), dialers, copts...)
}

func inprocInfo(res *core.FederatedResult) roundInfo {
	ri := roundInfo{
		sha:       shaLines(res.Snapshot()),
		witnesses: res.WitnessesInjected, steps: res.PropagationSteps, violate: len(res.Violations),
	}
	for _, tr := range res.Targets {
		if tr.Result != nil {
			ri.addReport(tr.Result.Report)
			ri.addFindings(tr.Result.Findings)
		}
	}
	return ri
}

func wireInfo(res *dist.RoundResult) roundInfo {
	ri := roundInfo{
		sha:       shaLines(res.Snapshot()),
		witnesses: res.WitnessesInjected, steps: res.PropagationSteps, violate: len(res.Violations),
	}
	for _, tr := range res.Targets {
		if x := tr.Explore; x != nil {
			ri.runs += x.Runs
			ri.paths += x.NewPaths
			ri.skipped += x.SkippedNegations
			ri.solverCalls += x.SolverCalls
			ri.cacheHits += x.CacheHits
			ri.solverSat += x.SolverSat
			ri.solverUnsat += x.SolverUnsat
		}
		ri.addFindings(tr.Findings)
	}
	return ri
}

func inprocRound(fe *core.FederatedExperiment) (roundInfo, error) {
	res, err := fe.Round()
	if err != nil {
		return roundInfo{}, err
	}
	return inprocInfo(res), nil
}

func wireRound(c *dist.Coordinator) (roundInfo, error) {
	res, err := c.Round()
	if err != nil {
		return roundInfo{}, err
	}
	return wireInfo(res), nil
}

func (b *fleetBench) cold() (roundInfo, error) {
	if b.coord != nil {
		return wireRound(b.coord)
	}
	return inprocRound(b.fe)
}

func (b *fleetBench) warm() (func() (roundInfo, error), func(), error) {
	if b.coord != nil {
		c, err := b.connect(true, nil)
		if err != nil {
			return nil, nil, err
		}
		return func() (roundInfo, error) { return wireRound(c) }, func() { c.Close() }, nil
	}
	fe, err := core.NewFederatedExperiment(b.topo, fleetOptions(b.workers, true))
	if err != nil {
		return nil, nil, err
	}
	return func() (roundInfo, error) { return inprocRound(fe) }, func() {}, nil
}

func (b *fleetBench) check(ri roundInfo) error {
	if ri.validated == 0 || ri.validated != ri.findings {
		return fmt.Errorf("%d findings, %d validated", ri.findings, ri.validated)
	}
	if ri.witnesses == 0 || ri.violate == 0 {
		return fmt.Errorf("%d witnesses injected, %d violations", ri.witnesses, ri.violate)
	}
	return nil
}

func (b *fleetBench) live() *liveDriver { return nil }

func (b *fleetBench) pieces() roundPieces {
	return roundPieces{
		routers: b.fe.Fabric.Routers,
		targets: b.topo.ResolveTargets(core.ScenarioRouteLeak),
		engine:  concolic.Options{MaxRuns: fleetMaxRuns},
		workers: b.workers,
		fe:      b.fe,
	}
}

func (b *fleetBench) close() {
	if b.coord != nil {
		b.coord.Close()
	}
}

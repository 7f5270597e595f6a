package main

import (
	"fmt"
	"sync"
	"time"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/netsim"
	"dice/internal/router"
	"dice/internal/trace"
)

// roundInfo is what one exploration round reports, in the shape all
// four workloads share.
type roundInfo struct {
	sha string // hash of the canonical finding snapshot

	runs, paths, skipped      int // handler executions, new paths, skipped negations
	solverCalls, cacheHits    int
	solverSat, solverUnsat    int
	findings, validated       int
	youtube                   bool // the YouTube-analogue /22 was reported
	witnesses, steps, violate int  // fleet rounds: injected witnesses, deliveries, violations

	// reports are the round's raw exploration reports (in-process rounds
	// only); the solver and sym probes replay their recorded paths.
	reports []*concolic.Report
}

func (ri *roundInfo) queries() int { return ri.solverCalls + ri.cacheHits }

func (ri *roundInfo) addReport(rep *concolic.Report) {
	ri.runs += rep.Runs
	ri.paths += len(rep.Paths)
	ri.skipped += rep.SkippedNegations
	ri.solverCalls += rep.SolverCalls
	ri.cacheHits += rep.CacheHits
	ri.solverSat += rep.SolverSat
	ri.solverUnsat += rep.SolverUnsat
	ri.reports = append(ri.reports, rep)
}

func (ri *roundInfo) addFindings(fs []core.Finding) {
	for _, f := range fs {
		ri.findings++
		if f.Validated {
			ri.validated++
		}
		if f.VictimPrefix == core.YouTubeVictim {
			ri.youtube = true
		}
	}
}

// bench is one workload's system under test, as set-up leaves it.
type bench interface {
	// cold runs one round with no exploration state carried in or out.
	cold() (roundInfo, error)
	// warm opens ReuseState rounds over fresh state: the first call of
	// round primes it, later calls are warm. done releases it.
	warm() (round func() (roundInfo, error), done func(), err error)
	// check holds a cold round to the workload's semantic invariants.
	check(ri roundInfo) error
	// live is the workload's live-update driver, nil when it has none.
	live() *liveDriver
	// pieces exposes the live routers and targets a round is made of, so
	// the traced pass can recompose it from the packages' public calls.
	pieces() roundPieces
	close()
}

// nodeBench is a Fig. 2 workload: one DiCE-enabled provider exploring
// its customer peering (node_online, deep_policy).
type nodeBench struct {
	f        *core.Fig2
	scenario string
	engine   concolic.Options
	filter   string         // customer import policy source
	recs     []trace.Record // the loaded table
	prefixes int            // provider table size once loaded

	mu     sync.Mutex // the live node's state lock: driver and explorer share it
	lock   holdLock
	driver *liveDriver // nil: no live traffic beside exploration

	loadTable, fabricBuild, traceGen time.Duration
}

// nodeSpec is what distinguishes the two Fig. 2 workloads.
type nodeSpec struct {
	scenario string
	table    int
	clauses  int // 0: the paper's BrokenCustomerFilter
	workers  int
	live     bool
}

func setupNode(seed int64, sp nodeSpec) (*nodeBench, error) {
	b := &nodeBench{scenario: sp.scenario, filter: core.BrokenCustomerFilter}
	if sp.clauses > 0 {
		b.filter = deepPolicy(seed, sp.clauses)
	}
	b.engine = concolic.Options{MaxRuns: 2000, Workers: sp.workers}
	b.lock.mu = &b.mu

	t := time.Now()
	b.recs = tableRecords(seed, sp.table)
	b.traceGen = time.Since(t)

	t = time.Now()
	f, err := core.NewFig2(core.Fig2Options{CustomerFilter: b.filter})
	if err != nil {
		return nil, err
	}
	b.f = f
	b.fabricBuild = time.Since(t)

	t = time.Now()
	if _, err := f.LoadTable(b.recs); err != nil {
		return nil, err
	}
	b.loadTable = time.Since(t)
	b.prefixes = f.Provider.RIB().Prefixes()

	if sp.live {
		groups := 512
		if max := (len(b.recs) - 3) / 2; groups > max {
			groups = max
		}
		b.driver = &liveDriver{
			mu:   &b.mu,
			sess: f.Internet.Session(core.NodeProvider),
			net:  f.Net,
			ring: churnRing(seed, b.recs, groups),
		}
	}
	return b, nil
}

func (b *nodeBench) explore(d *core.DiCE) (roundInfo, error) {
	res, err := d.ExploreScenario(b.scenario, core.NodeCustomer)
	if err != nil {
		return roundInfo{}, err
	}
	ri := roundInfo{sha: shaLines(core.SnapshotTarget(core.NodeProvider, core.NodeCustomer, b.scenario, "", res.Findings))}
	ri.addReport(res.Report)
	ri.addFindings(res.Findings)
	return ri, nil
}

func (b *nodeBench) cold() (roundInfo, error) {
	// A fresh DiCE per round: nothing can leak into "cold".
	return b.explore(core.New(b.f.Provider, core.Options{Engine: b.engine, CloneLock: &b.lock}))
}

func (b *nodeBench) warm() (func() (roundInfo, error), func(), error) {
	d := core.New(b.f.Provider, core.Options{Engine: b.engine, CloneLock: &b.lock, ReuseState: true})
	return func() (roundInfo, error) { return b.explore(d) }, func() {}, nil
}

func (b *nodeBench) check(ri roundInfo) error {
	if ri.validated == 0 || ri.validated != ri.findings {
		return fmt.Errorf("%d findings, %d validated", ri.findings, ri.validated)
	}
	if b.scenario == core.ScenarioUpdate && !ri.youtube {
		return fmt.Errorf("YouTube-analogue %s not reported", core.YouTubeVictim)
	}
	b.mu.Lock()
	n := b.f.Provider.RIB().Prefixes()
	b.mu.Unlock()
	if d := n - b.prefixes; d*100 > b.prefixes || -d*100 > b.prefixes {
		return fmt.Errorf("table drifted from %d to %d prefixes", b.prefixes, n)
	}
	return nil
}

func (b *nodeBench) live() *liveDriver { return b.driver }

func (b *nodeBench) pieces() roundPieces {
	return roundPieces{
		routers: map[string]*router.Router{core.NodeProvider: b.f.Provider},
		targets: []core.ResolvedTarget{{Node: core.NodeProvider, Peer: core.NodeCustomer, Scenario: b.scenario, Explicit: true}},
		engine:  b.engine,
		workers: b.engine.Workers,
		lock:    &b.lock,
		driver:  b.driver,
	}
}

func (b *nodeBench) close() {}

// holdLock is the CloneLock handed to the explorer: the mutex the live
// driver also takes, with every explorer-side Lock→Unlock timed. One
// ExploreScenario round holds it exactly twice — the seed read, then the
// checkpoint clone.
type holdLock struct {
	mu    *sync.Mutex
	since time.Time
	holds []time.Duration
}

func (l *holdLock) Lock() {
	l.mu.Lock()
	l.since = time.Now()
}

func (l *holdLock) Unlock() {
	l.holds = append(l.holds, time.Since(l.since))
	l.mu.Unlock()
}

// liveDriver is the closed-loop live-update client: one goroutine
// pushing the churn ring through internet→provider, one UPDATE at a
// time, each under the node's state lock. The ring position survives
// across phases so the table stays stationary.
type liveDriver struct {
	mu   *sync.Mutex
	sess *bgp.Session
	net  *netsim.Network
	ring []*bgp.Update
	pos  int
}

// liveRun is one phase of live traffic.
type liveRun struct {
	stop chan struct{}
	done chan struct{}

	// Valid once halt returned.
	sent, errs int
	elapsed    time.Duration
	latencyMS  []float64 // per-update Lock→Unlock-inclusive latency, when sampled
}

// start begins pushing updates; sample keeps per-update latencies.
func (d *liveDriver) start(sample bool) *liveRun {
	lr := &liveRun{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(lr.done)
		begin := time.Now()
		for {
			select {
			case <-lr.stop:
				lr.elapsed = time.Since(begin)
				return
			default:
			}
			u := d.ring[d.pos]
			d.pos = (d.pos + 1) % len(d.ring)
			t := time.Now()
			d.mu.Lock()
			err := d.sess.SendUpdate(u)
			if err == nil {
				d.net.Run(0)
			}
			d.mu.Unlock()
			if err != nil {
				lr.errs++
			}
			lr.sent++
			if sample {
				lr.latencyMS = append(lr.latencyMS, ms(time.Since(t)))
			}
		}
	}()
	return lr
}

// halt stops the phase and waits for the driver goroutine to exit.
func (lr *liveRun) halt() {
	close(lr.stop)
	<-lr.done
}

func (lr *liveRun) perSecond() float64 { return float64(lr.sent) / lr.elapsed.Seconds() }

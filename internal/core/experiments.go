package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dice/internal/bgp"
	"dice/internal/checkpoint"
	"dice/internal/concolic"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/stats"
	"dice/internal/trace"
)

// This file contains the runners that regenerate the paper's evaluation
// (§4.1 and §4.2) plus the two design-choice ablations from DESIGN.md.
// cmd/experiments calls these.

// Scale parameterizes experiment size. The paper runs at TableSize=319355
// on a 48-core machine; Scale lets the same experiments run at laptop
// scale while preserving the workload shape.
type Scale struct {
	TableSize   int // full-dump prefixes (paper: 319,355)
	UpdateCount int // incremental updates in the 15-min trace
	ExploreRuns int // concolic run budget per exploration round
	Seed        int64
}

// genTrace builds the experiment trace at the given scale. Records inside
// the customer's own allocation are dropped: in the non-hijacked steady
// state the rest of the Internet does not originate routes inside a
// customer's space, and keeping them would make the control experiment
// (correct filter) flag legitimate customer announcements.
func genTrace(s Scale) []trace.Record {
	cfg := trace.DefaultGenConfig()
	cfg.TableSize = s.TableSize
	cfg.UpdateCount = s.UpdateCount
	cfg.Seed = s.Seed
	recs := trace.Generate(cfg)
	out := recs[:0]
	for _, r := range recs {
		if CustomerSpace.Overlaps(r.Prefix) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Victims returns deterministic hijack victims inside the broken filter's
// leak region, including a YouTube-analogue /22 (the real incident's
// victim was a /22 out of which a /24 was blackholed).
func Victims() []trace.Record {
	mk := func(prefix string, origin uint16) trace.Record {
		return trace.Record{
			Kind:   trace.KindDump,
			Prefix: netaddr.MustParsePrefix(prefix),
			Attrs: bgp.Attrs{
				HasOrigin:  true,
				Origin:     bgp.OriginIGP,
				ASPath:     bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{InternetAS, origin}}},
				HasNextHop: true,
				NextHop:    netaddr.AddrFrom4(10, 0, 0, 3),
			},
		}
	}
	return []trace.Record{
		mk("10.153.112.0/22", 36561), // AS36561 is YouTube's real ASN
		mk("10.6.0.0/16", 64999),
		mk("10.200.0.0/16", 64801),
	}
}

// YouTubeVictim is the /22 analogue of the hijacked YouTube prefix.
var YouTubeVictim = netaddr.MustParsePrefix("10.153.112.0/22")

// --- E1: §4.1 memory overhead ------------------------------------------------

// E1Result is the memory experiment outcome (paper: checkpoint 3.45%
// unique pages; exploration clones +36.93% mean / 39% max).
type E1Result struct {
	TableSize       int
	CheckpointPages int
	CheckpointBytes int
	// UniqueFraction: fraction of checkpoint pages private to the
	// checkpoint after the live router processed the update trace.
	UniqueFraction float64
	// Clone overheads relative to the checkpoint.
	CloneOverheadMean float64
	CloneOverheadMax  float64
	ClonesMeasured    int
}

// RunE1Memory loads the full table, checkpoints, lets the live router
// process the 15-minute update replay (divergence), and measures page
// sharing; exploration clone overheads come from a measured round.
func RunE1Memory(s Scale) (*E1Result, error) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		return nil, err
	}
	recs := append(genTrace(s), Victims()...)
	if _, err := f.LoadTable(recs); err != nil {
		return nil, err
	}

	// Checkpoint before the update replay.
	store := checkpoint.NewStore(0)
	ckpt := store.TakeChunks("checkpoint", f.Provider.EncodeStateChunks())
	defer ckpt.Release()

	// The live router keeps processing the trace while exploration runs
	// over the (now frozen) checkpoint.
	_, updates := trace.Split(recs)
	if _, err := f.ReplayUpdates(updates); err != nil {
		return nil, err
	}
	live := store.TakeChunks("live", f.Provider.EncodeStateChunks())
	uniqueFrac := ckpt.UniqueFraction(live)
	live.Release()

	// Clone overheads from a measured exploration round.
	d := New(f.Provider, Options{
		Engine:        concolic.Options{MaxRuns: s.ExploreRuns},
		MeasureMemory: true,
	})
	res, err := d.ExplorePeer(NodeCustomer)
	if err != nil {
		return nil, err
	}
	return &E1Result{
		TableSize:         s.TableSize,
		CheckpointPages:   ckpt.Pages(),
		CheckpointBytes:   ckpt.Size(),
		UniqueFraction:    uniqueFrac,
		CloneOverheadMean: res.Memory.CloneOverheadMean,
		CloneOverheadMax:  res.Memory.CloneOverheadMax,
		ClonesMeasured:    res.Memory.ClonesMeasured,
	}, nil
}

// --- E2/E3: §4.1 CPU / throughput ----------------------------------------------

// ThroughputResult reports updates/second with and without concurrent
// exploration (paper E2: 13.9 vs 15.1 ⇒ 8% impact; E3: 0.272 vs 0.287,
// negligible).
type ThroughputResult struct {
	UpdatesPerSecWith    float64
	UpdatesPerSecWithout float64
	ImpactPercent        float64
	UpdatesProcessed     int
	ExplorationRounds    int
}

// throughputRun drives updates through the internet→provider session,
// optionally with continuous background exploration contending on the
// router's state lock (the paper pins the explorer and its checkpoints to
// a shared core; here they share the router's serialization point and the
// process's memory system).
func throughputRun(s Scale, preload bool, paced time.Duration, withExploration bool) (float64, int, int, error) {
	f, err := NewFig2(Fig2Options{CustomerFilter: ThroughputFilter})
	if err != nil {
		return 0, 0, 0, err
	}
	recs := append(Victims(), genTrace(s)...)
	dump, updates := trace.Split(recs)

	var driven []trace.Record
	if preload {
		if _, err := f.LoadTable(recs); err != nil {
			return 0, 0, 0, err
		}
		driven = updates
	} else {
		// Seed one observed update so exploration has a template, then
		// drive the bulk of the dump as the measured workload.
		if _, err := f.LoadTable(dump[:1]); err != nil {
			return 0, 0, 0, err
		}
		driven = dump[1:]
	}

	var lock sync.Mutex
	rounds := 0
	stop := make(chan struct{})
	done := make(chan struct{})
	if withExploration {
		// Like the paper: ONE checkpoint, then continuous exploration over
		// it for the whole measurement window. The checkpoint clone is the
		// only operation that touches the live router; exploration work
		// (COW clones, handler runs, solver queries) shares the process's
		// CPUs and memory system with the measured update path.
		d := New(f.Provider, Options{
			Engine: concolic.Options{
				MaxRuns: 1 << 30, // bounded by the cancel signal
				Cancel:  stop,
			},
			CloneLock: &lock,
		})
		go func() {
			defer close(done)
			if _, err := d.ExplorePeer(NodeCustomer); err != nil {
				return
			}
			rounds++
		}()
		// Give the round time to take its checkpoint before measuring.
		time.Sleep(20 * time.Millisecond)
	} else {
		close(done)
	}

	sess := f.Internet.Session(NodeProvider)
	// Warm up both modes identically and normalize the GC heap target so
	// the comparison isolates exploration's cost rather than allocator
	// pacing artifacts.
	warm := 200
	if warm > len(driven)/10 {
		warm = len(driven) / 10
	}
	for _, rec := range driven[:warm] {
		lock.Lock()
		if err := sess.SendUpdate(trace.ToUpdate(rec)); err == nil {
			f.Net.Run(0)
		}
		lock.Unlock()
	}
	driven = driven[warm:]
	runtime.GC()

	startWall := time.Now()
	n := 0
	for i, rec := range driven {
		if paced > 0 {
			due := startWall.Add(paced * time.Duration(i) / time.Duration(len(driven)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		lock.Lock()
		err := sess.SendUpdate(trace.ToUpdate(rec))
		if err == nil {
			f.Net.Run(0)
		}
		lock.Unlock()
		if err != nil {
			close(stop)
			<-done
			return 0, 0, 0, err
		}
		n++
	}
	elapsed := time.Since(startWall)
	close(stop)
	<-done
	return float64(n) / elapsed.Seconds(), rounds, n, nil
}

// RunE2FullLoad measures UPDATE throughput while bulk-loading the routing
// table — the paper's "most stressful case". Each mode runs several times
// (interleaved) and the medians are compared, because sub-second loads
// are noisy.
func RunE2FullLoad(s Scale) (*ThroughputResult, error) {
	const reps = 5
	var withs, withouts stats.Summary
	var rounds, n int
	for i := 0; i < reps; i++ {
		w, r, nn, err := throughputRun(s, false, 0, true)
		if err != nil {
			return nil, err
		}
		withs.Observe(w)
		rounds += r
		n = nn
		wo, _, _, err := throughputRun(s, false, 0, false)
		if err != nil {
			return nil, err
		}
		withouts.Observe(wo)
	}
	with, without := withs.Median(), withouts.Median()
	return &ThroughputResult{
		UpdatesPerSecWith:    with,
		UpdatesPerSecWithout: without,
		ImpactPercent:        100 * (1 - with/without),
		UpdatesProcessed:     n,
		ExplorationRounds:    rounds,
	}, nil
}

// RunE3Steady measures throughput during a paced (real-time) replay of
// the incremental trace, compressed into the given wall-clock window —
// the paper's realistic scenario where the trace rate is the bottleneck.
func RunE3Steady(s Scale, window time.Duration) (*ThroughputResult, error) {
	with, rounds, n, err := throughputRun(s, true, window, true)
	if err != nil {
		return nil, err
	}
	without, _, _, err := throughputRun(s, true, window, false)
	if err != nil {
		return nil, err
	}
	return &ThroughputResult{
		UpdatesPerSecWith:    with,
		UpdatesPerSecWithout: without,
		ImpactPercent:        100 * (1 - with/without),
		UpdatesProcessed:     n,
		ExplorationRounds:    rounds,
	}, nil
}

// --- E4: §4.2 route-leak detection ----------------------------------------------

// E4Result is the detection experiment outcome.
type E4Result struct {
	Findings         []Finding
	FalsePositives   int // anycast suppressions
	Paths            int
	Runs             int
	Elapsed          time.Duration
	VictimsInstalled int
	YouTubeDetected  bool // the /22 analogue specifically
}

// RunE4RouteLeak replicates the prefix-hijack detection experiment:
// misconfigured customer filtering at the provider, exploration over
// customer announcements, oracle against the pre-exploration table.
func RunE4RouteLeak(s Scale, filterSrc string, anycast []netaddr.Prefix) (*E4Result, error) {
	f, err := NewFig2(Fig2Options{CustomerFilter: filterSrc, Anycast: anycast})
	if err != nil {
		return nil, err
	}
	vict := Victims()
	recs := append(genTrace(s), vict...)
	if _, err := f.LoadTable(recs); err != nil {
		return nil, err
	}
	d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: s.ExploreRuns}})
	res, err := d.ExplorePeer(NodeCustomer)
	if err != nil {
		return nil, err
	}
	out := &E4Result{
		Findings:         res.Findings,
		FalsePositives:   res.FalsePositivesFiltered,
		Paths:            len(res.Report.Paths),
		Runs:             res.Report.Runs,
		Elapsed:          res.Elapsed,
		VictimsInstalled: len(vict),
	}
	for _, fd := range res.Findings {
		if fd.VictimPrefix == YouTubeVictim {
			out.YouTubeDetected = true
		}
	}
	return out, nil
}

// --- S2: cross-round exploration state --------------------------------------------

// S2RoundStats is one round's cost in the warm-state experiment.
type S2RoundStats struct {
	Scenario         string
	Round            int
	Runs             int
	NewPaths         int
	SolverQueries    int
	SkippedNegations int
}

// S2Result reports per-round exploration cost with shared cross-round
// state, for every registered scenario.
type S2Result struct {
	Rounds []S2RoundStats
}

// RunS2WarmState runs `rounds` consecutive online rounds per registered
// scenario on one DiCE instance with ReuseState, measuring how much work
// each round repeats. With an unchanged seed, warm rounds must skip all
// known paths and negations.
func RunS2WarmState(s Scale, rounds int) (*S2Result, error) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		return nil, err
	}
	recs := append(genTrace(s), Victims()...)
	if _, err := f.LoadTable(recs); err != nil {
		return nil, err
	}
	d := New(f.Provider, Options{
		Engine:     concolic.Options{MaxRuns: s.ExploreRuns},
		ReuseState: true,
	})
	out := &S2Result{}
	for _, name := range ScenarioNames() {
		for round := 1; round <= rounds; round++ {
			res, err := d.ExploreScenario(name, NodeCustomer)
			if err != nil {
				return nil, err
			}
			rep := res.Report
			out.Rounds = append(out.Rounds, S2RoundStats{
				Scenario:         name,
				Round:            round,
				Runs:             rep.Runs,
				NewPaths:         len(rep.Paths),
				SolverQueries:    rep.SolverCalls,
				SkippedNegations: rep.SkippedNegations,
			})
		}
	}
	return out, nil
}

// --- A1: symbolic-marking ablation -----------------------------------------------

// A1Result compares field-granular symbolic marking (DiCE's choice) with
// marking raw message bytes symbolic (§3.2: raw marking "produce[s] a
// large variety of invalid messages that simply exercise the message
// parsing code").
type A1Result struct {
	FieldRuns        int
	FieldValidRatio  float64 // parseable generated messages
	FieldPolicyPaths int     // distinct outcomes reaching policy code
	RawRuns          int
	RawValidRatio    float64
	RawPolicyPaths   int
}

// RunA1SymbolicMarking runs both marking strategies over the same seed
// message and run budget.
func RunA1SymbolicMarking(s Scale) (*A1Result, error) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		return nil, err
	}
	if _, err := f.LoadTable(Victims()); err != nil {
		return nil, err
	}
	seed := f.Provider.LastObserved(NodeCustomer)
	res := &A1Result{FieldValidRatio: 1.0} // field marking is valid by construction

	d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: s.ExploreRuns}})
	fieldRes, err := d.ExplorePeer(NodeCustomer)
	if err != nil {
		return nil, err
	}
	res.FieldRuns = fieldRes.Report.Runs
	res.FieldPolicyPaths = len(fieldRes.Report.Paths)

	// Raw-bytes marking: the first rawVars wire bytes are symbolic.
	wire, err := bgp.Encode(seed)
	if err != nil {
		return nil, err
	}
	const rawVars = 12
	valid := 0
	total := 0
	policyPaths := map[string]bool{}
	handler := func(rc *concolic.RunContext) any {
		mut := append([]byte(nil), wire...)
		for i := 0; i < rawVars && i < len(mut); i++ {
			b := rc.Input(fmt.Sprintf("byte%d", i))
			mut[i] = byte(b.C)
			// The parser's byte comparisons, coarsely modeled: equality
			// against the observed byte is the branch the engine negates.
			rc.Branch(concolic.Eq(b, concolic.Concrete(uint64(wire[i]), 8)))
		}
		total++
		m, err := bgp.Decode(mut)
		if err != nil {
			return "parse-error"
		}
		u, ok := m.(*bgp.Update)
		if !ok || len(u.NLRI) == 0 {
			return "not-an-update"
		}
		valid++
		clone := f.Provider.Clone(netsim.NewCaptureSink())
		outc := clone.HandleUpdateConcrete(NodeCustomer, u)
		policyPaths[fmt.Sprintf("%v-%v", outc.Accepted, outc.Prefix)] = true
		return outc
	}
	eng := concolic.NewEngine(handler, concolic.Options{MaxRuns: s.ExploreRuns})
	for i := 0; i < rawVars && i < len(wire); i++ {
		eng.Var(fmt.Sprintf("byte%d", i), 8, uint64(wire[i]))
	}
	rawRep := eng.Explore()
	res.RawRuns = rawRep.Runs
	if total > 0 {
		res.RawValidRatio = float64(valid) / float64(total)
	}
	res.RawPolicyPaths = len(policyPaths)
	return res, nil
}

// --- A2: checkpoint-vs-replay ablation ---------------------------------------------

// A2Result compares the time to reach an exploration-ready state from a
// live checkpoint (DiCE) vs replaying the input history from the initial
// state (the approach §2.3 rejects as "prohibitively time-consuming").
type A2Result struct {
	HistoryLen     int
	CheckpointTime time.Duration // clone from live state
	ReplayTime     time.Duration // fresh topology + full history replay
	SpeedupFactor  float64
}

// a2Reps is how many times A2 times each side; it keeps the fastest, so
// one GC pause or descheduling inside a single timed run cannot decide
// the ratio.
const a2Reps = 5

// fastestOf runs run n times and returns its fastest wall-clock time.
func fastestOf(n int, run func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// RunA2CheckpointVsReplay measures both paths to a ready exploration
// substrate for the given history length, each the fastest of a2Reps.
func RunA2CheckpointVsReplay(historyLen int, seedVal int64) (*A2Result, error) {
	s := Scale{TableSize: historyLen, UpdateCount: 0, ExploreRuns: 1, Seed: seedVal}
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		return nil, err
	}
	recs := genTrace(s)
	if _, err := f.LoadTable(recs); err != nil {
		return nil, err
	}

	// DiCE: clone the live router.
	ckptTime, err := fastestOf(a2Reps, func() error {
		clone := f.Provider.Clone(netsim.NewCaptureSink())
		if clone.RIB().Prefixes() != f.Provider.RIB().Prefixes() {
			return fmt.Errorf("a2: clone lost state")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Replay-from-initial-state: rebuild and replay the whole history.
	replayTime, err := fastestOf(a2Reps, func() error {
		f2, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
		if err != nil {
			return err
		}
		_, err = f2.LoadTable(recs)
		return err
	})
	if err != nil {
		return nil, err
	}

	out := &A2Result{
		HistoryLen:     historyLen,
		CheckpointTime: ckptTime,
		ReplayTime:     replayTime,
	}
	if ckptTime > 0 {
		out.SpeedupFactor = float64(replayTime) / float64(ckptTime)
	}
	return out, nil
}

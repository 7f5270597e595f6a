// Package core implements DiCE itself — the paper's contribution: online
// testing of a deployed node by concolic exploration from live state.
//
// One exploration round (§2.3):
//
//  1. Take a checkpoint of the live node (page-granular, COW-shared).
//  2. Derive a symbolic input template from a previously observed message
//     (the scenario's seed: selectively small fields become symbolic).
//  3. Repeatedly: clone the checkpoint, execute the instrumented message
//     handler with an engine-chosen input, record the path constraints,
//     negate one predicate, solve, repeat — while intercepting every
//     message the clones produce so the deployed system is unaffected.
//  4. Run the scenario's fault oracles over the explored outcomes (e.g.
//     the origin misconfiguration / prefix-hijack detector of §4.2) —
//     each path judged on the worker that found it, as part of step 3;
//     only deduplication and ordering wait for the round to end.
//
// The message-type-specific parts of a round live behind the Scenario
// interface (scenario.go); DiCE provides the round machinery once and
// keeps per-(scenario, peer) ExploreState so the paper's continuous
// online mode does not re-explore known paths every round.
package core

import (
	"sync"
	"time"

	"dice/internal/checkpoint"
	"dice/internal/concolic"
	"dice/internal/minimize"
	"dice/internal/router"
)

// Options configures DiCE exploration rounds.
type Options struct {
	// Engine tunes the concolic engine (budgets, workers).
	Engine concolic.Options
	// ReuseState keeps per-(scenario, peer) exploration state across
	// rounds on this DiCE instance: repeated online rounds skip paths
	// and negations already explored.
	// When false (default) every round explores from scratch, unless
	// Engine.State is set explicitly.
	ReuseState bool
	// MeasureMemory enables per-clone page accounting (the §4.1 memory
	// experiment). It costs one state serialization per run.
	MeasureMemory bool
	// CloneLock, when set, is held while forking clones from the live
	// router. Throughput experiments share it with the live update path
	// so checkpointing serializes against message processing, as fork()
	// serializes against the process it snapshots.
	CloneLock sync.Locker
	// LeakBoundaryCommunity is the community the routeleak scenario's
	// oracle treats as the no-export policy boundary (0 = the RFC 1997
	// well-known NO_EXPORT). Federated experiments set it from the
	// topology file's no_export_community.
	LeakBoundaryCommunity uint32
}

// MemoryStats reproduces the §4.1 memory measurements.
type MemoryStats struct {
	CheckpointPages int
	CheckpointBytes int
	// CheckpointUniqueFraction is the fraction of the checkpoint's pages
	// not shared with the live process state at measurement time (paper:
	// 3.45%).
	CheckpointUniqueFraction float64
	// CloneOverheadMean/Max are extra pages consumed by exploration
	// clones relative to the checkpoint (paper: mean 36.93%, max 39%).
	CloneOverheadMean float64
	CloneOverheadMax  float64
	ClonesMeasured    int
}

// Result is the outcome of one exploration round.
type Result struct {
	// Scenario is the name of the scenario that ran.
	Scenario string
	Report   *concolic.Report
	Findings []Finding
	// Details carries scenario-specific analysis beyond Findings (e.g.
	// *OpenExploration for "open", *WithdrawExploration for "withdraw");
	// nil when the scenario reports through Findings alone.
	Details any
	// FalsePositivesFiltered counts potential hijacks suppressed because
	// the prefix is known anycast space.
	FalsePositivesFiltered int
	// CapturedMessages is the number of messages clones tried to send;
	// all of them were intercepted (isolation invariant).
	CapturedMessages int
	// WitnessesRejected counts oracle findings whose witness failed
	// validation by re-execution (dropped from Findings).
	WitnessesRejected int
	// Minimization aggregates witness-minimization work over this
	// target's findings (nil unless a federated round ran with
	// FederatedOptions.Minimize and a witness triggered violations).
	Minimization *minimize.Stats
	Memory       MemoryStats
	Elapsed      time.Duration
}

// DiCE drives exploration for one live router.
type DiCE struct {
	live   *router.Router
	opts   Options
	states *concolic.StateMap // keyed by WarmKey
}

// New creates a DiCE instance attached to a live router.
func New(live *router.Router, opts Options) *DiCE {
	return &DiCE{live: live, opts: opts, states: concolic.NewStateMap()}
}

// State returns the cross-round exploration state accumulated for a
// scenario and peer, or nil if no round has run with ReuseState set.
func (d *DiCE) State(scenario, peer string) *concolic.ExploreState {
	return d.states.Peek(WarmKey(d.live.Name(), scenario, peer))
}

// withLock runs fn holding l, when there is one.
func withLock(l sync.Locker, fn func()) {
	if l != nil {
		l.Lock()
		defer l.Unlock()
	}
	fn()
}

// ExploreScenario runs one exploration round of the named scenario
// against peerName. It takes the live node's state lock once, for the
// checkpoint, and reads the seed from the checkpoint, so the seed and the
// state explored are of one instant (prepare, as every fleet target).
// The round explores with the scenario's per-path oracle running inside
// it against the checkpoint-time state (witness validation included),
// then folds. A round that fails for want of a seed
// (SeedUnavailableError) has still paid for its checkpoint: an O(1)
// clone, after which the live table copies each trie path it next writes.
func (d *DiCE) ExploreScenario(name, peerName string) (*Result, error) {
	start := time.Now()
	tg := ResolvedTarget{Node: d.live.Name(), Peer: peerName, Scenario: name, Boundary: d.opts.LeakBoundaryCommunity}
	var states *concolic.StateMap
	if d.opts.Engine.State == nil && d.opts.ReuseState {
		states = d.states
	}
	var meter *memoryMeter
	if d.opts.MeasureMemory {
		meter = &memoryMeter{store: checkpoint.NewStore(0)}
	}
	tp, err := prepare(d.live, d.opts.CloneLock, tg, d.opts.Engine, states, meter)
	if err != nil {
		return nil, err
	}
	res := tp.analyze(tp.Engine.Explore())
	if meter != nil {
		meter.finish(d, &res.Memory)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// ExplorePeer runs one UPDATE exploration round using the most recent
// UPDATE observed from the named peer as the seed input.
func (d *DiCE) ExplorePeer(peerName string) (*Result, error) {
	return d.ExploreScenario(ScenarioUpdate, peerName)
}

// memoryMeter is the §4.1 memory experiment (Options.MeasureMemory) as an
// observer of a round's clones: it serializes the checkpoint and every
// exploration clone, after its run, into a page store and compares them.
// Serializing and hashing full state is itself costly, which is why it is
// opt-in.
type memoryMeter struct {
	store *checkpoint.Store
	ckpt  *checkpoint.Snapshot

	mu        sync.Mutex
	overheads []float64 // per clone, extra pages relative to the checkpoint
}

// prepared serializes the round's checkpoint, once, before any run.
func (m *memoryMeter) prepared(ckpt *router.Router) {
	m.ckpt = m.store.TakeChunks("checkpoint", ckpt.EncodeStateChunks())
}

// observe serializes one run's clone and records its extra pages.
func (m *memoryMeter) observe(clone *router.Router) {
	snap := m.store.TakeChunks("clone", clone.EncodeStateChunks())
	over := snap.OverheadFraction(m.ckpt)
	snap.Release()
	m.mu.Lock()
	m.overheads = append(m.overheads, over)
	m.mu.Unlock()
}

// finish compares the checkpoint against the live node's current state
// (it kept processing while the round explored) and folds the per-clone
// overheads.
func (m *memoryMeter) finish(d *DiCE, out *MemoryStats) {
	out.CheckpointPages = m.ckpt.Pages()
	out.CheckpointBytes = m.ckpt.Size()
	var liveNow *checkpoint.Snapshot
	withLock(d.opts.CloneLock, func() {
		liveNow = m.store.TakeChunks("live-now", d.live.EncodeStateChunks())
	})
	out.CheckpointUniqueFraction = m.ckpt.UniqueFraction(liveNow)
	liveNow.Release()
	if n := len(m.overheads); n > 0 {
		var sum float64
		for _, o := range m.overheads {
			sum += o
			out.CloneOverheadMax = max(out.CloneOverheadMax, o)
		}
		out.CloneOverheadMean = sum / float64(n)
		out.ClonesMeasured = n
	}
	m.ckpt.Release()
}

package core

import (
	"fmt"
	"sort"
	"sync"

	"dice/internal/concolic"
	"dice/internal/rib"
	"dice/internal/router"
)

// Scenario is one protocol surface DiCE can explore concolically. The
// paper's Oasis "explores multiple message types"; a Scenario packages
// everything message-type-specific — how to derive a seed input from the
// live node, which fields of it become symbolic, how to execute one
// engine-chosen input against a checkpoint clone, and which oracles to
// run — so the round machinery in DiCE (checkpointing, clone-per-run
// isolation, memory accounting, cross-round state) is written once and
// shared by every message type.
//
// An oracle comes in two halves. What it can decide from one explored
// path alone — solver queries over the path condition, validating a
// witness by re-execution — a scenario does in Judge (the optional
// PathJudge interface), which the exploration calls on the worker that
// found the path, while the other workers keep exploring. What depends
// on the order of paths — deduplication, counters, the final sort — is
// Analyze, a fold over the finished report and its verdicts. Scenarios
// with nothing to solve (open, withdraw) are folds only.
//
// Implementations must be stateless values: one registered Scenario
// serves concurrent rounds over different routers and peers. Seed values
// are opaque to the round machinery; each scenario round-trips its own
// type through the `seed any` parameters.
type Scenario interface {
	// Name is the registry key (e.g. "update", "open", "withdraw").
	Name() string
	// Description is a one-line summary for operator-facing listings.
	Description() string
	// Seed derives the observed seed input for peer from the live router.
	// It is called under the clone lock; it must only read.
	Seed(live *router.Router, peer string) (any, error)
	// Declare registers the scenario's symbolic input template on the
	// engine, seeded from the observed input.
	Declare(eng *concolic.Engine, seed any) error
	// Execute runs one engine-chosen input against a fresh clone of the
	// checkpoint and returns the outcome the scenario's oracles consume.
	// It is called concurrently from exploration workers; the clone is
	// private to the call, the seed is shared and must not be mutated.
	Execute(rc *concolic.RunContext, clone *router.Router, peer string, seed any) any
	// Analyze folds the finished round into res (Findings and/or
	// Details): res.Report.Paths in discovery order, each carrying the
	// verdict Judge returned for it when the scenario has one.
	Analyze(round *Round, res *Result)
}

// PathJudge is the per-path half of a scenario's oracle. Judge is called
// once per path new to the round, concurrently from exploration workers,
// and must depend on nothing but the path and the round's fixed
// artifacts; what it returns reaches Analyze as PathResult.Verdict. A
// warm round that finds no new path judges nothing.
type PathJudge interface {
	Judge(round *Round, p *concolic.PathResult) any
}

// Round carries one exploration round's fixed artifacts to a scenario's
// oracles: the peer and seed it runs from, the engine (for witness
// validation by re-execution), the checkpoint-time router whose state the
// oracles compare against ("routes already in the routing table prior to
// starting exploration", §4.2), and the leak boundary. It exists from
// prepare time on, so judges see the same Round the fold does.
type Round struct {
	Peer       string
	Seed       any
	Engine     *concolic.Engine
	Checkpoint *router.Router
	// Boundary is the community the routeleak oracle treats as the
	// no-export policy boundary, resolved (never 0).
	Boundary uint32

	victimsOnce sync.Once
	victims     []*rib.Route
}

// Victims returns the checkpoint's best routes — the routes whose traffic
// an announcement can steal — in prefix order. The walk is taken once per
// round, on first use: judges of several paths share it.
func (r *Round) Victims() []*rib.Route {
	r.victimsOnce.Do(func() { r.victims = r.Checkpoint.RIB().Dump() })
	return r.victims
}

// verdict is what a judge concluded from one path: the findings the path
// supports, before any cross-path deduplication and in the order the
// oracle met them, and its share of the round's counters. It holds what a
// Finding needs and nothing of the re-executed run.
type verdict struct {
	findings []Finding
	rejected int // witnesses that failed validation by re-execution
	filtered int // potential hijacks suppressed as anycast space
}

// verdictOf returns the verdict the scenario's judge attached to p, nil
// when it had nothing to say.
func verdictOf(p *concolic.PathResult) *verdict {
	v, _ := p.Verdict.(*verdict)
	return v
}

// announcementSeed is the seed of the scenarios that explore
// announcements: the most recent announcement from peer, not the most
// recent message — a replayed history ending in a withdraw must still
// leave a usable announcement template.
func announcementSeed(live *router.Router, peer string) (any, error) {
	seed := live.LastAnnounced(peer)
	if seed == nil {
		return nil, fmt.Errorf("dice: no observed UPDATE from peer %q to explore from", peer)
	}
	return seed, nil
}

var (
	scenarioMu sync.RWMutex
	scenarios  = make(map[string]Scenario)
)

// RegisterScenario adds a scenario to the registry. Built-in scenarios
// register themselves from init; external packages may add more. It
// panics on a duplicate name — scenario names are operator-facing
// identifiers and must be unambiguous.
func RegisterScenario(s Scenario) {
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarios[s.Name()]; dup {
		panic(fmt.Sprintf("core: duplicate scenario %q", s.Name()))
	}
	scenarios[s.Name()] = s
}

// LookupScenario returns the registered scenario for name.
func LookupScenario(name string) (Scenario, bool) {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	s, ok := scenarios[name]
	return s, ok
}

// ScenarioNames returns all registered scenario names, sorted.
func ScenarioNames() []string {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Built-in scenario names.
const (
	ScenarioUpdate    = "update"
	ScenarioOpen      = "open"
	ScenarioWithdraw  = "withdraw"
	ScenarioRouteLeak = "routeleak"
)

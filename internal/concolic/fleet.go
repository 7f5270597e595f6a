package concolic

import (
	"sort"
	"sync"
)

// FleetMember is one node's exploration in a federated round: its engine
// (already declared and seeded by the node's scenario) under the node's
// identity.
type FleetMember struct {
	// ID identifies the member — the federation node ID. It labels the
	// member's frontier shard and keys per-node cross-round state.
	ID string
	// Engine is the member's fully prepared engine (handler + declared
	// symbolic inputs). Its per-engine options (MaxRuns, Strategy,
	// State, Cancel) apply to this member alone; Workers is
	// ignored in fleet mode — the pool is shared.
	Engine *Engine
}

// ExploreFleet runs every member's exploration over one shared pool of
// workers. Each member keeps its own frontier shard, run budget and
// cross-round state, but the workers drain all shards together: when one
// node's frontier goes quiet the pool's capacity flows to the others, so
// a federated round costs max(node) wall-clock instead of sum(node).
//
// Reports are returned in member order. A nil or empty member list
// returns no reports.
func ExploreFleet(members []FleetMember, workers int) []*Report {
	if len(members) == 0 {
		return nil
	}
	ids := make([]string, len(members))
	engines := make([]*Engine, len(members))
	for i, m := range members {
		ids[i] = m.ID
		engines[i] = m.Engine
	}
	return newScheduler(ids, engines, workers).run()
}

// StateMap shards cross-round ExploreState by federation node ID, so
// repeated federated rounds are incremental per node: node A's explored
// paths never mask node B's, and each node's state stays valid exactly as
// long as that node's own policy configuration is stable.
//
// Safe for concurrent use.
type StateMap struct {
	mu sync.Mutex
	m  map[string]*ExploreState
}

// NewStateMap creates an empty per-node state map.
func NewStateMap() *StateMap {
	return &StateMap{m: make(map[string]*ExploreState)}
}

// For returns the node's state, allocating it on first use.
func (sm *StateMap) For(nodeID string) *ExploreState {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	st, ok := sm.m[nodeID]
	if !ok {
		st = NewExploreState()
		sm.m[nodeID] = st
	}
	return st
}

// Attach installs st as the node's state, replacing any existing one —
// the warm-handoff path: a replacement member inherits a frontier that
// was decoded off the wire rather than grown in this process.
func (sm *StateMap) Attach(nodeID string, st *ExploreState) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	sm.m[nodeID] = st
}

// Peek returns the node's state without allocating (nil if none).
func (sm *StateMap) Peek(nodeID string) *ExploreState {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.m[nodeID]
}

// NodeIDs returns the IDs with allocated state, sorted.
func (sm *StateMap) NodeIDs() []string {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	ids := make([]string, 0, len(sm.m))
	for id := range sm.m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

package dist

import (
	"fmt"
	"strings"
	"sync"

	"dice/internal/bgp"
	"dice/internal/checkpoint"
	"dice/internal/concolic"
	"dice/internal/config"
	"dice/internal/core"
	"dice/internal/telemetry"
)

// Replica is a stateless exploration worker: it serves the wire protocol
// like an Agent but administers no node and holds no fabric. Every
// explore_checkpoint request is self-contained — node config, serialized
// checkpoint, scenario seed, engine knobs — so one replica serves
// shards from any node of any topology, and a pool of them scales a
// round's exploration horizontally without any replica ever seeing
// state it wasn't shipped (the §2.4 "process these messages in
// isolation over their checkpointed states" worker, as a server).
type Replica struct {
	rpcServer

	// reqMu serializes request handling: each replica explores one shard
	// at a time (a pool's parallelism is across replicas, like the
	// coordinator's is across agents).
	reqMu sync.Mutex

	// Shard-keyed idempotency memo, session-scoped like the Agent's
	// explore memo: the coordinator keys replica explores by (Shard,
	// Round), retries after a replica reconnect answer from the memo, and
	// a new session nonce in the hello drops it — replica memos must not
	// outlive the coordinator-local sequences that key them, or a second
	// dice run would read the first run's stale shard results.
	session uint64
	memo    map[string]replicaMemoEntry

	// store holds the checkpoints this session shipped, assembled from
	// manifest + pages exactly as the node's agent paged them; shards keeps
	// the latest snapshot per shard so the next round's manifest resolves
	// against it and only changed pages travel. Keys the store cannot
	// resolve come back as MissingPages (a result, not an error) so the
	// sender re-ships them. Scoped like the memo: a new coordinator session
	// releases everything.
	store  *checkpoint.Store
	shards map[string]*heldCheckpoint
	tick   uint64 // recency clock for heldCheckpoint.used

	// Telemetry (nil unless EnableTelemetry ran).
	rm        *replicaMetrics
	concolicM *concolic.Metrics
}

// heldCheckpoint is one shard's retained snapshot and when it was last
// shipped or named.
type heldCheckpoint struct {
	snap *checkpoint.Snapshot
	used uint64
}

// checkpointBudget bounds the bytes the replica's store keeps resident.
// Past it the least-recently-used shards' snapshots are released —
// reference counts then evict exactly the pages no retained snapshot
// shares — and a sender that still believes those pages acknowledged
// heals through the MissingPages re-send.
const checkpointBudget = 32 << 20

// replicaMemoEntry is one memoized shard answer, valid for one round.
type replicaMemoEntry struct {
	round uint64
	out   *ReplicaExploreResult
}

// NewReplica builds an idle exploration replica.
func NewReplica() *Replica {
	r := &Replica{
		memo:   make(map[string]replicaMemoEntry),
		store:  checkpoint.NewStore(0),
		shards: make(map[string]*heldCheckpoint),
	}
	r.rpcServer = rpcServer{handler: r, name: "replica", role: "replica"}
	return r
}

// EnableTelemetry registers this replica's metric families on reg and
// starts recording: RPC server counters, explore/memo counts, and the
// concolic engine's per-round metrics. Call it before serving; a nil
// registry leaves telemetry off.
func (r *Replica) EnableTelemetry(reg *telemetry.Registry) {
	r.rpcServer.tm = newServerMetrics(reg)
	r.rm = newReplicaMetrics(reg)
	r.concolicM = concolic.NewMetrics(reg)
}

// handle dispatches one decoded request. Replicas answer only hello and
// explore_checkpoint — they have no node to checkpoint, shadow or query.
func (r *Replica) handle(method string, params message) (message, error) {
	r.reqMu.Lock()
	defer r.reqMu.Unlock()
	switch p := params.(type) {
	case *HelloParams:
		return r.hello(p), nil
	case *ReplicaExploreParams:
		return r.explore(p)
	}
	return nil, fmt.Errorf("dist: replica does not serve %q", method)
}

// hello scopes the memo to the coordinator session, mirroring the Agent's
// hello. The Node field
// carries the replica role marker instead of a topology node — a
// coordinator cross-checking node identity fails fast if it dials a
// replica where it expected an agent.
func (r *Replica) hello(p *HelloParams) *HelloResult {
	if p.Session != 0 && p.Session != r.session {
		r.session = p.Session
		clear(r.memo)
		for shard, h := range r.shards {
			h.snap.Release()
			delete(r.shards, shard)
		}
	}
	return &HelloResult{
		Node:     "(replica)",
		Topology: "(replica)",
		Version:  ProtoVersion,
	}
}

// explore restores the shipped checkpoint and runs the node agent's
// exact per-target pipeline over it (core.PrepareRestored → Explore →
// Analyze → WitnessRefs), so a shard explored on a replica reproduces
// the agent's answer finding for finding. The result also carries the
// post-round frontier memory for the coordinator's warm cache.
func (r *Replica) explore(p *ReplicaExploreParams) (*ReplicaExploreResult, error) {
	if p.Round != 0 && p.Shard != "" {
		if e, ok := r.memo[p.Shard]; ok && e.round == p.Round {
			r.rm.noteMemoHit()
			return e.out, nil
		}
	}
	// Unresolvable keys come back as MissingPages — no exploration, no
	// memo — and the sender retries with every page included.
	snap, missing := r.store.Assemble(p.Shard, p.Keys, p.Pages)
	if len(missing) > 0 {
		return &ReplicaExploreResult{MissingPages: missing}, nil
	}
	r.retain(p.Shard, snap)
	r.rm.noteExplore()
	engOpts := p.EngineKnobs.options(r.concolicM)
	cfg, err := config.Parse(strings.Join(p.Config, "\n"))
	if err != nil {
		return nil, fmt.Errorf("dist: replica: %s config: %w", p.Node, err)
	}
	msg, err := bgp.Decode(p.Seed)
	if err != nil {
		return nil, fmt.Errorf("dist: replica: %s/%s seed: %w", p.Node, p.Peer, err)
	}
	seed, ok := msg.(*bgp.Update)
	if !ok {
		return nil, fmt.Errorf("dist: replica: %s/%s seed is %T, want UPDATE", p.Node, p.Peer, msg)
	}
	if len(p.WarmState) > 0 {
		st, err := concolic.DecodeExploreState(p.WarmState)
		if err != nil {
			return nil, fmt.Errorf("dist: replica: %s/%s warm state: %w", p.Node, p.Peer, err)
		}
		engOpts.State = st
	} else {
		// Cold shards still explore under fresh state so the frontier
		// memory exists to ship back.
		engOpts.State = concolic.NewExploreState()
	}
	tg := core.ResolvedTarget{Node: p.Node, Peer: p.Peer, Scenario: p.Scenario, Explicit: p.Explicit, Boundary: p.Boundary}
	tp, err := core.PrepareRestored(p.Node, cfg, snap.Bytes(), tg, seed, engOpts)
	if err != nil {
		return nil, fmt.Errorf("dist: replica: %s/%s: %w", p.Node, p.Peer, err)
	}
	rep := tp.Engine.Explore()
	er, err := encodeExploreResult(tp, tp.Analyze(nil, engOpts, p.Boundary, rep))
	if err != nil {
		return nil, err
	}
	out := &ReplicaExploreResult{ExploreResult: *er, WarmState: engOpts.State.EncodeWire()}
	if p.Round != 0 && p.Shard != "" {
		r.memo[p.Shard] = replicaMemoEntry{round: p.Round, out: out}
	}
	return out, nil
}

// retain makes snap the shard's held checkpoint, releasing the one it
// replaces, then releases other shards' snapshots, least recently used
// first, until the store fits checkpointBudget. The snapshot just
// assembled always stays: it is about to be explored.
func (r *Replica) retain(shard string, snap *checkpoint.Snapshot) {
	if old, ok := r.shards[shard]; ok {
		old.snap.Release()
	}
	r.tick++
	r.shards[shard] = &heldCheckpoint{snap: snap, used: r.tick}
	for len(r.shards) > 1 && r.store.Stats().ResidentBytes > checkpointBudget {
		var lru string
		var oldest *heldCheckpoint
		for name, h := range r.shards {
			if h.snap != snap && (oldest == nil || h.used < oldest.used) {
				lru, oldest = name, h
			}
		}
		oldest.snap.Release()
		delete(r.shards, lru)
	}
}

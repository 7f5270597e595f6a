package dist

import (
	"fmt"
	"strings"

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

	// store holds the checkpoints this session shipped, assembled from
	// manifest + pages exactly as the node's agent paged them; shards keeps
	// the latest snapshot per shard so the next round's manifest resolves
	// against it and only changed pages travel. Keys the store cannot
	// resolve come back as MissingPages (a result, not an error) so the
	// sender re-ships them. A new coordinator session releases everything
	// (newSession).
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

// NewReplica builds an idle exploration replica.
func NewReplica() *Replica {
	r := &Replica{
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
// The server runs one at a time, so a replica explores one shard at a
// time (a pool's parallelism is across replicas).
func (r *Replica) handle(method string, params message) (message, error) {
	switch p := params.(type) {
	case *HelloParams:
		// The Node field carries the replica role marker instead of a
		// topology node — a coordinator cross-checking node identity fails
		// fast if it dials a replica where it expected an agent.
		return &HelloResult{Node: "(replica)", Topology: "(replica)", Version: ProtoVersion}, nil
	case *ReplicaExploreParams:
		return r.explore(p)
	}
	return nil, fmt.Errorf("dist: replica does not serve %q", method)
}

// newSession releases the checkpoints the previous coordinator session
// shipped.
func (r *Replica) newSession() {
	for shard, h := range r.shards {
		h.snap.Release()
		delete(r.shards, shard)
	}
}

func (r *Replica) memoHit(string) { r.rm.noteMemoHit() }

// explore restores the shipped checkpoint and runs the node agent's
// exact per-target pipeline over it (core.PrepareRestored → Explore →
// Analyze → WitnessRefs), so a shard explored on a replica reproduces
// the agent's answer finding for finding. The result also carries the
// post-round frontier memory for the coordinator's warm cache.
func (r *Replica) explore(p *ReplicaExploreParams) (*ReplicaExploreResult, error) {
	// Unresolvable keys come back as MissingPages — no exploration — and
	// the sender sends again, under a new key, with every page included.
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
	return &ReplicaExploreResult{ExploreResult: *er, WarmState: engOpts.State.EncodeWire()}, nil
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

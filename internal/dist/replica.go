package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"dice/internal/bgp"
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

	// pages is the session-scoped content-addressed page cache behind
	// ReplicaExploreParams page mode: checkpoint state arrives as ordered
	// content hashes plus only the pages the sender has not shipped this
	// session, and the replica reassembles the full state from here.
	// Hashes the cache cannot resolve come back as MissingPages (a
	// result, not an error) so the sender re-ships them. Scoped like the
	// memo: a new coordinator session drops it.
	pages map[string][]byte

	// Telemetry (nil unless EnableTelemetry ran).
	rm        *replicaMetrics
	concolicM *concolic.Metrics
}

// maxCachedPages bounds the page cache (32 MiB at the coordinator's
// 4 KiB page size). When an assembly pushes the cache past the bound,
// everything but the pages of the state just assembled is dropped — the
// sender's next shard re-ships what it needs via the miss protocol.
const maxCachedPages = 8192

// pageHash is the content address of one page: hex SHA-256, matching
// what page-mode senders put in ReplicaExploreParams.PageHash.
func pageHash(page []byte) string {
	sum := sha256.Sum256(page)
	return hex.EncodeToString(sum[:])
}

// replicaMemoEntry is one memoized shard answer, valid for one round.
type replicaMemoEntry struct {
	round uint64
	out   *ReplicaExploreResult
}

// NewReplica builds an idle exploration replica.
func NewReplica() *Replica {
	r := &Replica{
		memo:  make(map[string]replicaMemoEntry),
		pages: make(map[string][]byte),
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
		clear(r.pages)
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
	if len(p.PageHash) > 0 {
		// Page mode: reassemble the checkpoint from the session cache
		// plus whatever pages this request shipped. Unresolvable hashes
		// come back as MissingPages — no exploration, no memo — and the
		// sender retries with them included.
		state, missing := r.assembleState(p)
		if len(missing) > 0 {
			return &ReplicaExploreResult{MissingPages: missing}, nil
		}
		p.State = state
	}
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
	tp, restored, err := core.PrepareRestored(p.Node, cfg, p.State, tg, seed, engOpts)
	if err != nil {
		return nil, fmt.Errorf("dist: replica: %s/%s: %w", p.Node, p.Peer, err)
	}
	rep := tp.Engine.Explore()
	er, err := encodeExploreResult(tp, tp.Analyze(restored, engOpts, p.Boundary, rep))
	if err != nil {
		return nil, err
	}
	out := &ReplicaExploreResult{ExploreResult: *er, WarmState: engOpts.State.EncodeWire()}
	if p.Round != 0 && p.Shard != "" {
		r.memo[p.Shard] = replicaMemoEntry{round: p.Round, out: out}
	}
	return out, nil
}

// assembleState ingests a page-mode request's shipped pages into the
// session cache and reassembles the checkpoint state named by the
// ordered hash list. The shipped pages carry no index mapping — the
// content hash IS the identity — so ingestion is just "hash and store".
// Hashes still unresolved after ingestion are returned (deduplicated, in
// hash-list order) for the sender's retry.
func (r *Replica) assembleState(p *ReplicaExploreParams) (state []byte, missing []string) {
	for _, pg := range p.PageData {
		r.pages[pageHash(pg)] = pg
	}
	seen := make(map[string]bool)
	size := 0
	for _, h := range p.PageHash {
		pg, ok := r.pages[h]
		if !ok {
			if !seen[h] {
				seen[h] = true
				missing = append(missing, h)
			}
			continue
		}
		size += len(pg)
	}
	if len(missing) > 0 {
		return nil, missing
	}
	state = make([]byte, 0, size)
	for _, h := range p.PageHash {
		state = append(state, r.pages[h]...)
	}
	if len(r.pages) > maxCachedPages {
		// Keep only the live set just assembled; the miss protocol
		// restores anything else on demand.
		live := make(map[string][]byte, len(p.PageHash))
		for _, h := range p.PageHash {
			live[h] = r.pages[h]
		}
		r.pages = live
	}
	return state, nil
}

package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"dice/internal/concolic"
	"dice/internal/core"
)

// The wire protocol frames every message as a 4-byte big-endian payload
// length followed by one payload in the binary codec of wirev2.go —
// varint/fixed-width fields in the style of the internal/bgp message
// codec, so router state and BGP messages travel as raw bytes. A request
// names a method by code and carries its parameters; the response echoes
// the request ID with either a result or an error string. Every method,
// hello included, travels in that one envelope.
//
// Requests pipeline: a client may keep many requests in flight per
// connection, and responses are matched by ID (the agent preserves
// per-connection order today, but clients must not rely on it).

// ProtoVersion is the one wire protocol version this build speaks. The
// hello carries it in both directions and either side refuses a peer
// whose version differs — there is no negotiation and no down-encoding.
// Any change to a message layout bumps it. Fields that only some calls
// use (HelloParams.Properties, QueryOracleParams.WantProps /
// QueryOracleResult.PropMatch, the ReplicaExploreParams page fields and
// ReplicaExploreResult.MissingPages) are encoded as tails that are
// absent when unused; that keeps the common frames small, it is not a
// compatibility mechanism.
const ProtoVersion = 5

// maxFrame bounds a single frame; a full-table router checkpoint is a
// few MB, so 64 MiB leaves ample headroom while still catching a
// corrupted length prefix before it turns into an OOM.
const maxFrame = 64 << 20

// frameHeader is the big-endian payload length that opens every frame.
const frameHeader = 4

// newFrame starts an outgoing frame: the header is reserved up front so
// the encoders append the payload behind it and sendFrame writes the
// slice they built — one allocation per typical (≈75 B) frame.
func newFrame() []byte { return make([]byte, frameHeader, 128) }

// sendFrame fills in a newFrame-built frame's length and sends it. The
// header and body go out in a single Write so concurrent writers (the
// pipelined client, the agent's per-connection worker) interleave only
// at whole-frame granularity under their write locks.
func sendFrame(w io.Writer, frame []byte) error {
	n := len(frame) - frameHeader
	if n > maxFrame {
		return fmt.Errorf("dist: frame of %d bytes exceeds the %d byte limit", n, maxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// frameReadBuffer sizes the bufio.Reader client and server read frames
// through: a typical frame then costs one pipe rendezvous / read(2), not
// two (header, body). Small on purpose — a fleet holds two per connection.
const frameReadBuffer = 512

// readPayload receives one length-prefixed payload.
func readPayload(r io.Reader) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("dist: incoming frame of %d bytes exceeds the %d byte limit", n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// --- Method names ------------------------------------------------------------

const (
	// MethodHello identifies the agent: which node it administers.
	MethodHello = "hello"
	// MethodCheckpoint snapshots the agent's node state (serialized,
	// page-deduplicated) and returns the bytes — the §2.4 "checkpoint
	// their state and process these messages in isolation" surface; the
	// returned state round-trips through core.ExploreSnapshot.
	MethodCheckpoint = "checkpoint"
	// MethodExplore runs one concolic exploration round on the agent's
	// node (checkpoint clone, scenario seed, per-node warm state) and
	// returns findings plus materialized witness announcements.
	MethodExplore = "explore"
	// MethodShadowOpen clones the agent's node for witness propagation;
	// MethodInjectWitness delivers one message into a shadow clone and
	// returns what the node would emit in response; MethodShadowClose
	// discards the clone.
	MethodShadowOpen    = "shadow_open"
	MethodInjectWitness = "inject_witness"
	MethodShadowClose   = "shadow_close"
	// MethodInjectWitnessBatch delivers an ordered run of messages into
	// one shadow clone in a single round trip, with per-delivery results
	// — the coordinator's relay coalesces consecutive same-timestamp
	// deliveries to one agent through it.
	MethodInjectWitnessBatch = "inject_witness_batch"
	// MethodQueryOracle is the narrow cross-domain query interface: best
	// and covering route facts about one prefix in one shadow, enough
	// for the coordinator's cross-node oracles and forward tracing —
	// and nothing more.
	MethodQueryOracle = "query_oracle"
	// MethodReplay feeds a recorded trace (internal/trace encoding) into
	// the agent's live local fabric through a node←peer ingress session.
	// Every agent of a topology replays the same trace — the local
	// fabrics are deterministic, so all agents converge on identical
	// post-replay state without any node state crossing the wire.
	MethodReplay = "replay"
	// MethodSeed derives the target's scenario seed on the agent in the
	// one form a stateless replica can consume: a concrete BGP UPDATE.
	// Together with MethodCheckpoint it is everything the coordinator
	// ships when it offloads exploration to a replica pool.
	MethodSeed = "seed"
	// MethodExploreCheckpoint is the replica-side explore: restore a
	// shipped checkpoint (the node's config and serialized state), run
	// the same per-target pipeline the node agent runs, and return the
	// same ExploreResult — plus the exploration's frontier memory, so
	// the coordinator can keep rounds warm and reseed replacements.
	MethodExploreCheckpoint = "explore_checkpoint"
)

// --- Method payloads ---------------------------------------------------------

// HelloParams opens a connection: the client's protocol version, its
// session and the property set the agent should evaluate.
type HelloParams struct {
	// Version is the client's ProtoVersion. It is the first field of the
	// body, and a server that speaks a different version answers an error
	// naming both without interpreting the rest.
	Version int
	// Session is the coordinator's session nonce, minted fresh per
	// Connect. Agents are long-lived servers whose idempotency memos are
	// keyed by coordinator-local sequences (explore rounds, replay keys),
	// so the memos are only valid within the session that minted the
	// keys: an agent seeing a new nonce drops its memos, while reconnects
	// of the same coordinator (same nonce) still answer retries from
	// them. 0 leaves the memos alone.
	Session uint64
	// Properties is the coordinator's full property set (canonical
	// internal/prop source, one definition per entry, in evaluation
	// order). Agents compile it at hello — a malformed property fails the
	// handshake, before any round runs — and answer query_oracle WantProps
	// requests against it by list index. Empty leaves the agent's
	// previous property set untouched.
	Properties []string
}

// HelloResult describes the agent.
type HelloResult struct {
	// Node is the topology node this agent administers.
	Node string
	// Topology echoes the agent's topology name, so a coordinator
	// driving the wrong fabric fails fast instead of mis-propagating.
	Topology string
	AS       uint16
	// Prefixes is the node's converged Loc-RIB size (a cheap liveness
	// and convergence cross-check).
	Prefixes int
	// Version is the server's ProtoVersion; the client refuses any value
	// but its own.
	Version int
}

// CheckpointResult is one serialized node snapshot.
type CheckpointResult struct {
	// State is the complete serialized node state
	// (router.EncodeState format; router.DecodeState restores it).
	State []byte
	// Pages/UniquePages account the snapshot in the agent's page store:
	// pages it holds, and how many were new vs shared with earlier
	// snapshots of this node (the fork-COW accounting of §4.1).
	Pages       int
	UniquePages int
}

// EngineKnobs is the serializable subset of concolic.Options, embedded
// in both explore requests (Connect rejects the process-local rest:
// State, Cancel, SolverCache). Workers is the fleet's shared pool size.
type EngineKnobs struct {
	MaxRuns      int
	MaxDepth     int
	Workers      int
	SolverNodes  int
	Strategy     string
	TimeBudgetNS int64
}

// knobsOf flattens a round's options into their wire form.
func knobsOf(o *core.FederatedOptions) EngineKnobs {
	return EngineKnobs{
		MaxRuns:      o.Engine.MaxRuns,
		MaxDepth:     o.Engine.MaxDepth,
		Workers:      o.Workers,
		SolverNodes:  o.Engine.SolverNodes,
		Strategy:     o.Engine.Strategy.String(),
		TimeBudgetNS: o.Engine.TimeBudget.Nanoseconds(),
	}
}

// options is knobsOf's inverse, on the serving side.
func (k EngineKnobs) options(m *concolic.Metrics) (concolic.Options, error) {
	strat, err := parseStrategy(k.Strategy)
	if err != nil {
		return concolic.Options{}, err
	}
	return concolic.Options{
		Strategy:    strat,
		MaxRuns:     k.MaxRuns,
		MaxDepth:    k.MaxDepth,
		Workers:     k.Workers,
		SolverNodes: k.SolverNodes,
		TimeBudget:  time.Duration(k.TimeBudgetNS),
		Metrics:     m,
	}, nil
}

// ExploreParams asks the agent to run one exploration round.
type ExploreParams struct {
	// Peer and Scenario select the target; Explicit mirrors
	// core.ResolvedTarget (an explicit target's seed failure is a round
	// error; a defaulted one just reports Skipped).
	Peer     string
	Scenario string
	Explicit bool
	EngineKnobs
	// ReuseState keeps per-(node, scenario, peer) exploration state on
	// the agent across rounds — warm rounds skip known paths without the
	// state ever crossing the wire.
	ReuseState bool
	// Round is the coordinator's round sequence number, the explore
	// idempotency key: the agent memoizes its last result per
	// (peer, scenario) under this key, so a retry after a reconnect
	// returns the memoized result instead of re-exploring (which, under
	// ReuseState, would otherwise skip the paths the lost answer already
	// reported). 0 disables the memo.
	Round uint64
}

// WireFinding is one local oracle finding, flattened for the wire. It
// carries every core.Finding field (prefixes as strings, the leak range
// structurally), so distributed findings lose nothing the in-process
// backend reports.
type WireFinding struct {
	Kind         string
	Peer         string
	Prefix       string
	LeakRange    core.RangeDesc
	OriginAS     uint16
	VictimAS     uint16
	VictimPrefix string
	Seq          int
	Validated    bool
	SpreadTo     []string
	Input        map[string]uint64
	// Rendered is the finding's operator-facing String() — the agent
	// formats it so the coordinator never needs the scenario's internals.
	Rendered string
}

// ExploreResult is the agent's share of a federated round.
type ExploreResult struct {
	// Skipped is set (with the reason) when a defaulted target had no
	// observed seed; the coordinator reports it like the in-process
	// backend reports a FederatedTargetResult.Err.
	Skipped string

	Scenario         string
	Runs             int
	NewPaths         int
	BranchesSeen     int
	SolverCalls      int
	SolverSat        int
	SolverUnsat      int
	CacheHits        int
	SkippedPaths     int
	SkippedNegations int
	ElapsedNS        int64

	CapturedMessages  int
	WitnessesRejected int
	Findings          []WireFinding

	// Witnesses are the validated findings' concrete announcements,
	// in finding order — what the coordinator propagates between
	// domains.
	Witnesses []WireWitness
}

// WireWitness is one validated finding's concrete announcement. Finding
// indexes ExploreResult.Findings, so per-witness artifacts the
// coordinator computes (the minimal witness) land back on the right
// finding — the same linkage core.WitnessRef provides in-process.
type WireWitness struct {
	Finding int
	// Msg is the announcement in BGP wire encoding.
	Msg []byte
}

// SeedParams selects which target's scenario seed to derive.
type SeedParams struct {
	Peer     string
	Scenario string
}

// SeedResult is the derived seed, or why none shipped. Exactly one of
// the three outcomes holds: Msg set (a concrete UPDATE in BGP wire
// encoding), Unsupported (the scenario's seed is not an UPDATE — the
// target must explore on the node itself), or Missing (the node has
// observed nothing usable yet — the same condition PrepareTarget
// reports as SeedUnavailableError).
type SeedResult struct {
	Msg         []byte
	Unsupported bool
	Missing     string
}

// ReplicaExploreParams ships one exploration target to a stateless
// replica: the node's identity and configuration, its checkpointed
// state, the scenario seed, the engine knobs, and the round/shard keys
// that make the call idempotent. Nothing here refers back to the
// coordinator's fabric — the replica reconstructs the target entirely
// from the message.
type ReplicaExploreParams struct {
	// Node names the checkpointed node; Config is its topology config
	// (one line per element, config.Parse grammar); State is the
	// MethodCheckpoint snapshot to restore.
	Node   string
	Config []string
	State  []byte
	// Peer/Scenario/Explicit select the target, as in ExploreParams.
	Peer     string
	Scenario string
	Explicit bool
	EngineKnobs
	// Boundary is the topology's leak-boundary community (the replica
	// has no topology to derive it from).
	Boundary uint32
	// Seed is the scenario seed UPDATE in BGP wire encoding (from
	// MethodSeed).
	Seed []byte
	// WarmState, when set, is serialized cross-round exploration memory
	// (concolic ExploreState wire encoding): the replica resumes from it
	// instead of exploring cold, which is how ReuseState survives the
	// shard moving between replicas.
	WarmState []byte
	// Round and Shard key the replica's idempotency memo: the replica
	// memoizes its last result per Shard under Round, so a retried shard
	// (after a replica loss mid-call) returns the memoized result
	// instead of re-exploring. Round 0 disables the memo.
	Round uint64
	Shard string
	// Page mode (feature-gated tail: none of these travel when
	// PageSize is 0). Instead of shipping State, the sender splits it into
	// PageSize-byte pages and sends the ordered content hashes in
	// PageHash; PageData carries only the pages the sender believes the
	// replica has not cached this session (each entry hashes to one of the
	// PageHash entries — the hash IS the page identity, so no index
	// mapping travels). The replica reassembles State from its
	// session-scoped page cache and answers MissingPages for any hash it
	// cannot resolve, at which point the sender re-sends with those pages
	// included. Warm rounds re-ship only the pages that changed.
	PageSize int
	PageHash []string
	PageData [][]byte
}

// ReplicaExploreResult is the replica's answer: the agent-shaped
// ExploreResult plus the post-exploration frontier memory.
type ReplicaExploreResult struct {
	ExploreResult
	// WarmState is the exploration's frontier memory after this round
	// (concolic ExploreState wire encoding) — ship it back in the next
	// round's WarmState to explore incrementally, or seed a replacement
	// agent with it.
	WarmState []byte
	// MissingPages, when non-empty, means a page-mode request named
	// hashes the replica's cache could not resolve (first contact, a
	// restarted replica, or an eviction): no exploration ran, nothing was
	// memoized, and the sender must retry with the named pages in
	// PageData. It is a result field, not an error, because transport
	// errors trigger worker failover — a cache miss must stay on the same
	// replica connection.
	MissingPages []string
}

// ReplayParams feeds a recorded trace into the agent's live fabric.
type ReplayParams struct {
	// Node receives the trace; Peer sends it (the ingress must be an
	// established session of the agent's local fabric).
	Node string
	Peer string
	// Trace is the recorded history in the internal/trace file encoding
	// (dump records bulk-load, update records replay at their offsets).
	Trace []byte
	// Key is the replay idempotency key: the agent remembers every key
	// it has applied to its live fabric and answers a re-delivery (after
	// a reconnect, or when re-establishing a replacement agent from the
	// coordinator's replay history) from memory instead of double-feeding
	// the fabric. 0 disables the memo.
	Key uint64
}

// ReplayResult reports one agent's replay outcome.
type ReplayResult struct {
	// Delivered is the number of trace records injected at the ingress.
	Delivered int
	// Prefixes is the agent's own node's Loc-RIB size after replay —
	// diagnostic only (different nodes legitimately differ; the
	// coordinator's determinism cross-check compares Delivered).
	Prefixes int
}

// ShadowOpenResult names a fresh shadow clone.
type ShadowOpenResult struct {
	ShadowID uint64
}

// InjectParams delivers one BGP message into a shadow clone, as if sent
// by the named peer. The initial witness injection and every relayed
// propagation hop use the same method: an injection IS a delivery.
type InjectParams struct {
	ShadowID uint64
	// From is the sending peer (must be a configured peer of the node).
	From string
	// Msg is the BGP wire message (bgp.Encode framing).
	Msg []byte
	// Key is the delivery idempotency key, unique per delivery within
	// the shadow's lifetime. The agent memoizes the emissions per key,
	// so a retry after a reconnect returns the original answer instead
	// of delivering the message twice (which would double-count route
	// churn). 0 disables the memo.
	Key uint64
}

// WireEmission is one message the shadow node emitted in response.
type WireEmission struct {
	To  string
	Msg []byte
}

// InjectResult lists what the delivery caused the node to send.
type InjectResult struct {
	Emitted []WireEmission
}

// BatchDelivery is one delivery inside an inject_witness_batch: the
// sending peer and the BGP wire message, exactly an InjectParams minus
// the shared shadow ID.
type BatchDelivery struct {
	From string
	Msg  []byte
}

// InjectBatchParams delivers an ordered run of messages into one shadow
// clone. The agent injects them strictly in order; the outcome is
// byte-for-byte what the same deliveries would produce as individual
// inject_witness calls, minus the per-delivery round trips.
type InjectBatchParams struct {
	ShadowID   uint64
	Deliveries []BatchDelivery
	// Key is the batch idempotency key (see InjectParams.Key): the whole
	// batch is memoized under it, so re-delivery after a reconnect
	// cannot double-apply any of its deliveries. 0 disables the memo.
	Key uint64
}

// InjectBatchResult carries one InjectResult per delivery, in delivery
// order — per-witness attribution never coarsens just because the
// transport batched.
type InjectBatchResult struct {
	Results []InjectResult
}

// ShadowCloseParams discards a shadow clone.
type ShadowCloseParams struct {
	ShadowID uint64
}

// QueryOracleParams asks route facts about one prefix in one shadow.
type QueryOracleParams struct {
	ShadowID uint64
	Prefix   string
	// WantProps asks the agent to also evaluate its hello-shipped
	// property set's `at` route predicates against the best route and
	// answer PropMatch (feature-gated tail: the field adds no bytes when
	// false).
	WantProps bool
}

// QueryOracleResult is the narrow per-node oracle view: whether a best
// route exists for the exact prefix (with a shadow-scoped identity
// token so the coordinator can tell witness-installed routes from
// pre-existing ones), and the covering best route's forwarding facts
// for the trace oracle.
type QueryOracleResult struct {
	HasBest bool
	// BestFP is the shadow-scoped identity token of the exact-prefix
	// best route object. Pre/post comparison carries the in-process
	// backend's pointer-identity check across the wire: any
	// re-installation — even of byte-identical content — yields a new
	// token, exactly as it yields a new pointer.
	BestFP string
	// Covering facts drive the forward trace: is traffic for the prefix
	// routed at all, delivered locally, or handed to a neighbor?
	HasCovering      bool
	CoveringLocal    bool
	CoveringNextPeer string
	// PropMatch answers WantProps: one verdict per property in the
	// hello-shipped set (list order), true when the property's `at`
	// predicate matches this node's installed best route (properties
	// without an `at` clause are always true). Meaningful only when
	// HasBest; empty when the request did not set WantProps.
	PropMatch []bool
}

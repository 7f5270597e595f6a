package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"dice/internal/checkpoint"
	"dice/internal/codec"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/netaddr"
)

// The wire protocol, whole: framing, envelope, the protocol's domain
// types, the method table and every payload layout live in this file and
// nowhere else; the bounded primitives under them are internal/codec's.
//
// A frame is a 4-byte big-endian payload length followed by one payload:
//
//	request:  0xD2 | uvarint id | u8 method code | method params
//	response: 0xD3 | uvarint id | u8 status      | error string (status=1)
//	                                             | method result (status=0)
//
// The codec encodes core's and netaddr's own types directly, in the style
// of internal/bgp's message codec: fixed-width fields where the domain
// fixes the width (AS numbers, addresses, prefixes as 4+1 octets, the
// search strategy as one), uvarints for counts, IDs and route tokens,
// length-prefixed byte strings — router state and BGP messages travel as
// raw bytes, and a dense ExploreResult costs bytes proportional to its
// content. Each payload struct below sits next to its layout: one wire
// method that encodes or decodes, depending on the pass it is handed.
//
// The leading kind octet is not printable ASCII, so a peer speaking
// anything else (a JSON document from a pre-binary build, say) fails
// loudly on its first frame instead of desynchronizing the stream. The
// decoder checks remaining length before consuming, rejects out-of-range
// values (prefix lengths over 32, unknown strategies, lying counts) and
// rejects trailing bytes — malformed input errors, it never panics, and
// truncation at any byte offset is an error (FuzzDecodeFrame pins this).
//
// Requests pipeline: a client may keep many requests in flight per
// connection, and responses are matched by ID (the agent preserves
// per-connection order today, but clients must not rely on it).

// ProtoVersion is the one wire protocol version this build speaks. The
// hello carries it in both directions and either side refuses a peer
// whose version differs — there is no negotiation and no down-encoding.
// Any change to a message layout bumps it, and so does one to the raw
// bytes payloads carry (router checkpoints, replay traces). Fields that
// only some calls use (HelloParams.Properties, InjectBatchParams.WantProps,
// ReplicaExploreResult.MissingPages) are encoded as tails that are absent
// when unused; that keeps the common frames small, it is not a
// compatibility mechanism.
const ProtoVersion = 9

// --- Framing -----------------------------------------------------------------

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

// --- The pass ----------------------------------------------------------------

// errFrame is the malformed-payload error class; every decode failure
// wraps it so transports can distinguish protocol corruption from
// application errors.
var errFrame = errors.New("dist: malformed frame")

func frameErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errFrame, fmt.Sprintf(format, args...))
}

// message is any payload the codec carries. wire states the payload's
// layout once, over a pass that encodes or decodes it (internal/codec):
// decoding must leave the struct fully populated or record an error on
// the pass, and decodeBody enforces that the message consumed its entire
// body. The pass goes in and comes back by value — a pointer would escape
// through this interface and cost every frame an allocation.
type message interface {
	wire(c coder) coder
}

// coder is the wire pass: codec.C plus the protocol's domain types.
type coder struct{ codec.C }

func encoder(dst []byte) coder { return coder{codec.Encoder(dst)} }
func decoder(src []byte) coder { return coder{codec.Decoder(src, errFrame)} }

// decodeBody decodes a full method body into msg, rejecting trailing
// bytes. A nil msg accepts only an empty body.
func decodeBody(body []byte, msg message) error {
	c := decoder(body)
	if msg != nil {
		c = msg.wire(c)
	}
	return c.Finish()
}

// key is a checkpoint page key, its 32 raw octets.
func (c *coder) key(k *checkpoint.Key) { c.Fixed(k[:]) }

// input is a finding's name→value map, entries in sorted name order: the
// encoding is canonical, so encode→decode→encode is byte-stable (the
// fuzz harness leans on this the way internal/trace's does).
func (c *coder) input(m *map[string]uint64) {
	type entry struct {
		name  string
		value uint64
	}
	var es []entry
	if !c.Decoding() {
		es = make([]entry, 0, len(*m))
		for k, v := range *m {
			es = append(es, entry{k, v})
		}
		slices.SortFunc(es, func(a, b entry) int { return strings.Compare(a.name, b.name) })
	}
	codec.List(&c.C, &es, 2, func(e *entry) {
		c.Str(&e.name)
		c.Uvarint(&e.value)
	})
	if c.Decoding() && len(es) > 0 {
		*m = make(map[string]uint64, len(es))
		for _, e := range es {
			(*m)[e.name] = e.value
		}
	}
}

// finding is a core.Finding's local-oracle fields. Witness and
// MinimalWitness are the coordinator's (it attaches them after cross-
// domain propagation) and never travel; a zero VictimPrefix is "none".
func (c *coder) finding(f *core.Finding) {
	c.Str(&f.Kind)
	c.Str(&f.Peer)
	c.Prefix(&f.Prefix)
	c.U32((*uint32)(&f.LeakRange.AddrLo))
	c.U32((*uint32)(&f.LeakRange.AddrHi))
	c.MaskLen(&f.LeakRange.LenLo)
	c.MaskLen(&f.LeakRange.LenHi)
	c.U16(&f.OriginAS)
	c.U16(&f.VictimAS)
	c.Prefix(&f.VictimPrefix)
	c.Uint(&f.Seq)
	c.Bool(&f.Validated)
	codec.List(&c.C, &f.SpreadTo, 1, c.Str)
	c.input(&f.Input)
}

// --- Envelope ----------------------------------------------------------------

// Payload kind octets.
const (
	frameRequest  = 0xd2
	frameResponse = 0xd3
)

// envelope is a payload's header: its kind octet, the call id, and the
// method code (a request) or the status (a response).
func (c *coder) envelope(kind uint8, id *uint64, code *uint8) {
	k := kind
	c.U8(&k)
	if k != kind {
		what := "request"
		if kind == frameResponse {
			what = "response"
		}
		c.Fail("payload kind %#x is not a %s", k, what)
	}
	c.Uvarint(id)
	c.U8(code)
}

// appendRequest encodes one request payload. params may be nil for
// parameterless methods.
func appendRequest(dst []byte, id uint64, method string, params message) ([]byte, error) {
	code, err := methodCode(method)
	if err != nil {
		return nil, err
	}
	c := encoder(dst)
	c.envelope(frameRequest, &id, &code)
	if params != nil {
		c = params.wire(c)
	}
	return c.Buf(), nil
}

// parseRequest splits a request payload into its envelope; the method
// body is returned raw for decodeParams.
func parseRequest(payload []byte) (id uint64, method string, body []byte, err error) {
	var code uint8
	c := decoder(payload)
	c.envelope(frameRequest, &id, &code)
	if err := c.Err(); err != nil {
		return 0, "", nil, err
	}
	if method, err = methodName(code); err != nil {
		return 0, "", nil, err
	}
	return id, method, c.Buf(), nil
}

// appendResponse encodes one response payload: an error string, or the
// method result (nil for empty results).
func appendResponse(dst []byte, id uint64, errMsg string, result message) []byte {
	var status uint8
	if errMsg != "" {
		status = 1
	}
	c := encoder(dst)
	c.envelope(frameResponse, &id, &status)
	if errMsg != "" {
		c.Str(&errMsg)
	} else if result != nil {
		c = result.wire(c)
	}
	return c.Buf()
}

// parseResponse splits a response payload into its envelope. On
// status=ok the raw result body is returned for the caller (who knows
// which method it answers) to decode; on status=error the error string
// is decoded here and body is nil.
func parseResponse(payload []byte) (id uint64, errMsg string, body []byte, err error) {
	var status uint8
	c := decoder(payload)
	c.envelope(frameResponse, &id, &status)
	if err := c.Err(); err != nil {
		return 0, "", nil, err
	}
	switch status {
	case 0:
		return id, "", c.Buf(), nil
	case 1:
		c.Str(&errMsg)
		if err := c.Finish(); err != nil {
			return 0, "", nil, err
		}
		return id, errMsg, nil, nil
	default:
		return 0, "", nil, frameErr("bad response status %d", status)
	}
}

// --- Methods -----------------------------------------------------------------

const (
	// MethodHello identifies the agent: which node it administers.
	MethodHello = "hello"
	// MethodCheckpoint snapshots the agent's node state (serialized as
	// stable regions, page-deduplicated in the agent's store) and returns
	// the regions — the §2.4 "checkpoint their state and process these
	// messages in isolation" surface; their concatenation restores through
	// router.DecodeState.
	MethodCheckpoint = "checkpoint"
	// MethodExplore runs one concolic exploration round on the agent's
	// node (checkpoint clone, scenario seed, per-node warm state) and
	// returns findings plus materialized witness announcements.
	MethodExplore = "explore"
	// MethodShadowOpen clones the agent's node for witness propagation;
	// MethodInjectWitness delivers an ordered run of messages into a
	// shadow clone and returns, for each, what the node would emit in
	// response and how its route for the delivery's watched prefix
	// changed; MethodShadowClose discards the clone.
	MethodShadowOpen    = "shadow_open"
	MethodInjectWitness = "inject_witness"
	MethodShadowClose   = "shadow_close"
	// MethodQueryOracle is the narrow cross-domain query interface: best
	// and covering route facts about one prefix in one shadow — what a
	// forward trace needs of a node no wave touched, and nothing more.
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

// methodTable is the protocol's schema: every method with its params and
// result types (nil where a method has none). A method's wire code is its
// index plus one. It is the only place a params type is named for
// decoding — servers decode request bodies through decodeParams, and the
// codec tests and the fuzz harness take their message lists from here.
var methodTable = [...]struct {
	name      string
	newParams func() message
	newResult func() message
}{
	{MethodHello, func() message { return new(HelloParams) }, func() message { return new(HelloResult) }},
	{MethodCheckpoint, nil, func() message { return new(CheckpointResult) }},
	{MethodExplore, func() message { return new(ExploreParams) }, func() message { return new(ExploreResult) }},
	{MethodShadowOpen, nil, func() message { return new(ShadowOpenResult) }},
	{MethodInjectWitness, func() message { return new(InjectBatchParams) }, func() message { return new(InjectBatchResult) }},
	{MethodShadowClose, func() message { return new(ShadowCloseParams) }, nil},
	{MethodQueryOracle, func() message { return new(QueryOracleParams) }, func() message { return new(QueryOracleResult) }},
	{MethodReplay, func() message { return new(ReplayParams) }, func() message { return new(ReplayResult) }},
	{MethodSeed, func() message { return new(SeedParams) }, func() message { return new(SeedResult) }},
	{MethodExploreCheckpoint, func() message { return new(ReplicaExploreParams) }, func() message { return new(ReplicaExploreResult) }},
}

// methodCode maps a method name to its wire code.
func methodCode(method string) (uint8, error) {
	for i, m := range methodTable {
		if m.name == method {
			return uint8(i + 1), nil
		}
	}
	return 0, fmt.Errorf("dist: method %q has no wire code", method)
}

// methodName maps a wire code back to its method name.
func methodName(code uint8) (string, error) {
	if code == 0 || int(code) > len(methodTable) {
		return "", frameErr("unknown method code %d", code)
	}
	return methodTable[code-1].name, nil
}

// decodeParams decodes a request body into the method's params type (nil
// for a parameterless method, whose body must be empty). role names the
// serving side ("agent", "replica") for the hello's version refusal: the
// hello's version is read first, and a client speaking another version
// gets an error naming both while the rest of its body — whose layout
// this build may not know — is not interpreted.
func decodeParams(method string, body []byte, role string) (message, error) {
	code, err := methodCode(method)
	if err != nil {
		return nil, err
	}
	if method == MethodHello {
		var ver int
		c := decoder(body)
		c.Uint(&ver)
		if err := c.Err(); err != nil {
			return nil, err
		}
		if ver != ProtoVersion {
			return nil, fmt.Errorf("dist: wire protocol v%d, this %s speaks v%d", ver, role, ProtoVersion)
		}
	}
	newParams := methodTable[code-1].newParams
	if newParams == nil {
		return nil, decodeBody(body, nil)
	}
	p := newParams()
	return p, decodeBody(body, p)
}

// --- hello -------------------------------------------------------------------

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
	// handshake, before any round runs — and answer inject_witness
	// WantProps requests against it by list index. Empty leaves the agent's
	// previous property set untouched.
	Properties []string
}

func (p *HelloParams) wire(c coder) coder {
	c.Uint(&p.Version)
	c.Uvarint(&p.Session)
	// Conditional tail: the property set travels only when non-empty.
	c.Tail(func() bool { return len(p.Properties) > 0 }, "properties", func() {
		codec.List(&c.C, &p.Properties, 1, c.Str)
	})
	return c
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

func (r *HelloResult) wire(c coder) coder {
	c.Str(&r.Node)
	c.Str(&r.Topology)
	c.U16(&r.AS)
	c.Uint(&r.Prefixes)
	c.Uint(&r.Version)
	return c
}

// --- checkpoint --------------------------------------------------------------

// CheckpointResult is one serialized node snapshot.
type CheckpointResult struct {
	// Chunks is the complete serialized node state as the node's stable
	// regions (router.EncodeStateChunks; their concatenation is what
	// router.DecodeState restores). The receiver
	// pages them with checkpoint.Store.TakeChunks — the discipline the
	// agent's own store used — so both sides name the same pages.
	Chunks [][]byte
	// Pages/UniquePages account the snapshot in the agent's page store:
	// pages it holds, and how many were new vs shared with earlier
	// snapshots of this node (the fork-COW accounting of §4.1).
	Pages       int
	UniquePages int
}

func (r *CheckpointResult) wire(c coder) coder {
	codec.List(&c.C, &r.Chunks, 1, c.Bytes)
	c.Uint(&r.Pages)
	c.Uint(&r.UniquePages)
	return c
}

// --- explore -----------------------------------------------------------------

// EngineKnobs is the serializable subset of concolic.Options, embedded
// in both explore requests (Connect rejects the process-local rest:
// State, Cancel). Workers is the fleet's shared pool size.
type EngineKnobs struct {
	MaxRuns  int
	Workers  int
	Strategy concolic.Strategy
}

// knobsOf flattens a round's options into their wire form.
func knobsOf(o *core.FederatedOptions) EngineKnobs {
	return EngineKnobs{MaxRuns: o.Engine.MaxRuns, Workers: o.Workers, Strategy: o.Engine.Strategy}
}

// options is knobsOf's inverse, on the serving side.
func (k EngineKnobs) options(m *concolic.Metrics) concolic.Options {
	return concolic.Options{Strategy: k.Strategy, MaxRuns: k.MaxRuns, Workers: k.Workers, Metrics: m}
}

func (k *EngineKnobs) wire(c coder) coder {
	c.Uint(&k.MaxRuns)
	c.Uint(&k.Workers)
	s := uint8(k.Strategy)
	c.U8(&s)
	if s > uint8(concolic.BFS) {
		c.Fail("unknown strategy %d", s)
	} else if c.Decoding() {
		k.Strategy = concolic.Strategy(s)
	}
	return c
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

func (p *ExploreParams) wire(c coder) coder {
	c.Str(&p.Peer)
	c.Str(&p.Scenario)
	c.Bool(&p.Explicit)
	c = p.EngineKnobs.wire(c)
	c.Bool(&p.ReuseState)
	c.Uvarint(&p.Round)
	return c
}

// ExploreResult is the agent's share of a federated round.
type ExploreResult struct {
	// Skipped is set (with the reason) when a defaulted target had no
	// observed seed; the coordinator reports it like the in-process
	// backend reports a FederatedTargetResult.Err.
	Skipped string

	Scenario     string
	Runs         int
	NewPaths     int
	BranchesSeen int
	SolverCalls  int
	SolverSat    int
	SolverUnsat  int
	// CacheHits is always 0 and does not travel: only the frozen
	// benchmark/ reads it, and it goes with solver.cache_hit_ratio in the
	// next benchmark issue.
	CacheHits        int
	SkippedPaths     int
	SkippedNegations int
	ElapsedNS        int64

	CapturedMessages  int
	WitnessesRejected int
	// Findings are the local oracle findings, as core reports them. The
	// coordinator's round result shares this slice (TargetResult.Findings)
	// and attaches Witness/MinimalWitness to it after propagation.
	Findings []core.Finding

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

func (r *ExploreResult) wire(c coder) coder {
	c.Str(&r.Skipped)
	c.Str(&r.Scenario)
	c.Uint(&r.Runs)
	c.Uint(&r.NewPaths)
	c.Uint(&r.BranchesSeen)
	c.Uint(&r.SolverCalls)
	c.Uint(&r.SolverSat)
	c.Uint(&r.SolverUnsat)
	c.Uint(&r.SkippedPaths)
	c.Uint(&r.SkippedNegations)
	ns := uint64(r.ElapsedNS)
	c.Uvarint(&ns)
	if c.Decoding() {
		r.ElapsedNS = int64(ns)
	}
	c.Uint(&r.CapturedMessages)
	c.Uint(&r.WitnessesRejected)
	// A finding's fixed-width fields alone are 25 octets.
	codec.List(&c.C, &r.Findings, 25, c.finding)
	codec.List(&c.C, &r.Witnesses, 2, func(w *WireWitness) {
		c.Uint(&w.Finding)
		c.Bytes(&w.Msg)
	})
	return c
}

// --- seed / explore_checkpoint -----------------------------------------------

// SeedParams selects which target's scenario seed to derive.
type SeedParams struct {
	Peer     string
	Scenario string
}

func (p *SeedParams) wire(c coder) coder {
	c.Str(&p.Peer)
	c.Str(&p.Scenario)
	return c
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

func (r *SeedResult) wire(c coder) coder {
	c.Bytes(&r.Msg)
	c.Bool(&r.Unsupported)
	c.Str(&r.Missing)
	return c
}

// ReplicaExploreParams ships one exploration target to a stateless
// replica: the node's identity and configuration, its checkpoint, the
// scenario seed, the engine knobs, and the round/shard keys that make the
// call idempotent. Nothing here refers back to the coordinator's fabric —
// the replica reconstructs the target entirely from the message.
//
// The checkpoint travels in its one off-node form, a checkpoint.Snapshot:
// Keys is the snapshot's manifest (every page's 32-byte content key, in
// state order, paged as the node's own agent paged it) and Pages carries
// the bodies of the pages this connection's replica has not acknowledged
// — all of them on first contact, on a warm round only those the node's
// live traffic changed, because a page's boundaries follow the node's
// stable regions and do not move when another region grows. A page body
// is identified by its content, so no index travels with it. The replica
// assembles the snapshot in its own checkpoint.Store and answers
// MissingPages for any key it cannot resolve, at which point the sender
// re-sends once with every page.
type ReplicaExploreParams struct {
	// Node names the checkpointed node; Config is its topology config
	// (one line per element, config.Parse grammar).
	Node   string
	Config []string
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
	// instead of re-exploring. Round 0 disables the memo. Shard also names
	// the slot the replica retains the assembled snapshot under.
	Round uint64
	Shard string
	// Keys and Pages are the checkpoint (see above).
	Keys  []checkpoint.Key
	Pages [][]byte
}

func (p *ReplicaExploreParams) wire(c coder) coder {
	c.Str(&p.Node)
	codec.List(&c.C, &p.Config, 1, c.Str)
	c.Str(&p.Peer)
	c.Str(&p.Scenario)
	c.Bool(&p.Explicit)
	c = p.EngineKnobs.wire(c)
	c.U32(&p.Boundary)
	c.Bytes(&p.Seed)
	c.Bytes(&p.WarmState)
	c.Uvarint(&p.Round)
	c.Str(&p.Shard)
	codec.List(&c.C, &p.Keys, len(checkpoint.Key{}), c.key)
	codec.List(&c.C, &p.Pages, 1, c.Bytes)
	return c
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
	// MissingPages, when non-empty, means the request's Keys named pages
	// the replica's store could not resolve (a restarted replica, or a
	// snapshot released to stay under the byte budget): no exploration
	// ran, nothing was memoized, and the sender must retry with the named
	// pages in Pages. It is a result field, not an error, because
	// transport errors trigger worker failover — a miss must stay on the
	// same replica connection.
	MissingPages []checkpoint.Key
}

func (r *ReplicaExploreResult) wire(c coder) coder {
	c = r.ExploreResult.wire(c)
	c.Bytes(&r.WarmState)
	// Conditional tail: only miss answers carry it.
	c.Tail(func() bool { return len(r.MissingPages) > 0 }, "missing_pages", func() {
		codec.List(&c.C, &r.MissingPages, len(checkpoint.Key{}), c.key)
	})
	return c
}

// --- replay ------------------------------------------------------------------

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

func (p *ReplayParams) wire(c coder) coder {
	c.Str(&p.Node)
	c.Str(&p.Peer)
	c.Bytes(&p.Trace)
	c.Uvarint(&p.Key)
	return c
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

func (r *ReplayResult) wire(c coder) coder {
	c.Uint(&r.Delivered)
	c.Uint(&r.Prefixes)
	return c
}

// --- shadows: open, inject_witness, close, query_oracle ----------------------

// ShadowOpenResult names a fresh shadow clone.
type ShadowOpenResult struct {
	ShadowID uint64
}

func (r *ShadowOpenResult) wire(c coder) coder {
	c.Uvarint(&r.ShadowID)
	return c
}

// BatchDelivery is one BGP message delivered into a shadow clone as if
// sent by the named peer. The initial witness injection and every relayed
// propagation hop use the same method: an injection IS a delivery.
type BatchDelivery struct {
	// From is the sending peer (must be a configured peer of the node).
	From string
	// Msg is the BGP wire message (bgp.Encode framing).
	Msg []byte
	// Watch is the prefix the delivery is about — its wave's witness
	// prefix. The agent reports the node's best route for it before and
	// after applying the delivery (InjectResult). Every delivery watches
	// one: the zero value is 0.0.0.0/0, not "none".
	Watch netaddr.Prefix
}

// InjectBatchParams delivers an ordered run of messages into one shadow
// clone: everything one relay time step holds for this agent, across the
// witnesses sharing the wave. The agent injects them strictly in order,
// all or nothing: an unknown shadow or sending peer fails the call before
// the first delivery.
type InjectBatchParams struct {
	ShadowID   uint64
	Deliveries []BatchDelivery
	// Key is the delivery idempotency key, unique per call within the
	// shadow's lifetime. The agent memoizes the whole answer under it, so
	// a retry after a reconnect returns the original answer instead of
	// delivering any message twice (which would double-count route
	// churn). 0 disables the memo.
	Key uint64
	// WantProps asks the agent to also evaluate its hello-shipped property
	// set's `at` route predicates against each delivery's after-view
	// (InjectResult.After.PropMatch). Conditional tail: the field adds no
	// bytes when false.
	WantProps bool
}

func (p *InjectBatchParams) wire(c coder) coder {
	c.Uvarint(&p.ShadowID)
	codec.List(&c.C, &p.Deliveries, 7, func(dl *BatchDelivery) {
		c.Str(&dl.From)
		c.Bytes(&dl.Msg)
		c.Prefix(&dl.Watch)
	})
	c.Uvarint(&p.Key)
	// Conditional tail: present only when the flag is set.
	c.Tail(func() bool { return p.WantProps }, "want_props", func() { c.Bool(&p.WantProps) })
	return c
}

// WireEmission is one message the shadow node emitted in response.
type WireEmission struct {
	To  string
	Msg []byte
}

// InjectResult is what one delivery did: the messages it caused the node
// to send, and how it changed the node's route for the watched prefix.
type InjectResult struct {
	Emitted []WireEmission
	// Before is the watched prefix's best-route token just before the
	// delivery was applied (0 = none); After is the node's full view of it
	// just after. The coordinator keeps the first Before and the last
	// After per node and wave, which is why it polls nobody.
	Before uint64
	After  QueryOracleResult
}

// InjectBatchResult carries one InjectResult per delivery, in delivery
// order — per-witness attribution never coarsens just because the
// transport batched. It is what the agent memoizes under the call's key,
// so a retried delivery reports the same before / after it reported the
// first time.
type InjectBatchResult struct {
	Results []InjectResult
}

func (r *InjectBatchResult) wire(c coder) coder {
	codec.List(&c.C, &r.Results, 7, func(res *InjectResult) {
		codec.List(&c.C, &res.Emitted, 2, func(e *WireEmission) {
			c.Str(&e.To)
			c.Bytes(&e.Msg)
		})
		c.Uvarint(&res.Before)
		c = res.After.wire(c)
	})
	return c
}

// ShadowCloseParams discards a shadow clone.
type ShadowCloseParams struct {
	ShadowID uint64
}

func (p *ShadowCloseParams) wire(c coder) coder {
	c.Uvarint(&p.ShadowID)
	return c
}

// QueryOracleParams asks route facts about one prefix in one shadow.
type QueryOracleParams struct {
	ShadowID uint64
	Prefix   netaddr.Prefix
}

func (p *QueryOracleParams) wire(c coder) coder {
	c.Uvarint(&p.ShadowID)
	c.Prefix(&p.Prefix)
	return c
}

// QueryOracleResult is the narrow per-node oracle view: whether a best
// route exists for the exact prefix (with a shadow-scoped identity
// token so the coordinator can tell witness-installed routes from
// pre-existing ones), and the covering best route's forwarding facts
// for the trace oracle. It answers query_oracle, and rides in every
// InjectResult as the delivery's after-view.
type QueryOracleResult struct {
	// BestToken is the shadow-scoped identity token of the exact-prefix
	// best route object; tokens start at 1 and 0 means the node has no
	// best route for the prefix. Before/after comparison carries the
	// in-process backend's pointer-identity check across the wire: any
	// re-installation — even of byte-identical content — yields a new
	// token, exactly as it yields a new pointer.
	BestToken uint64
	// Covering facts drive the forward trace: is traffic for the prefix
	// routed at all, delivered locally, or handed to a neighbor?
	HasCovering      bool
	CoveringLocal    bool
	CoveringNextPeer string
	// PropMatch answers an inject_witness WantProps: one verdict per
	// property in the hello-shipped set (list order), true when the
	// property's `at` predicate matches this node's installed best route
	// (properties without an `at` clause are always true). Meaningful only
	// with a best route; empty when nobody asked. The coordinator refuses,
	// as a malformed frame, one longer than the list it shipped.
	PropMatch []bool
}

func (r *QueryOracleResult) wire(c coder) coder {
	c.Uvarint(&r.BestToken)
	c.Bool(&r.HasCovering)
	c.Bool(&r.CoveringLocal)
	c.Str(&r.CoveringNextPeer)
	codec.List(&c.C, &r.PropMatch, 1, c.Bool)
	return c
}

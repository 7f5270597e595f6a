package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"dice/internal/checkpoint"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/netaddr"
)

// The wire protocol, whole: framing, envelope, primitives, the method
// table and every payload codec live in this file and nowhere else.
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
// content. Each payload struct below sits next to its codec.
//
// The leading kind octet is not printable ASCII, so a peer speaking
// anything else (a JSON document from a pre-binary build, say) fails
// loudly on its first frame instead of desynchronizing the stream. Every
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
// Any change to a message layout bumps it. Fields that only some calls
// use (HelloParams.Properties, InjectBatchParams.WantProps,
// ReplicaExploreResult.MissingPages) are encoded as tails that are absent
// when unused; that keeps the common frames small, it is not a
// compatibility mechanism.
const ProtoVersion = 8

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

// --- Primitives --------------------------------------------------------------

// errFrame is the malformed-payload error class; every decode failure
// wraps it so transports can distinguish protocol corruption from
// application errors.
var errFrame = errors.New("dist: malformed frame")

func frameErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errFrame, fmt.Sprintf(format, args...))
}

// message is any payload the codec carries: params and results append
// themselves to a buffer and decode from a dec. decodeFrom must leave the
// struct fully populated or record an error on the decoder; decodeBody
// enforces that the message consumed its entire body.
type message interface {
	appendTo(dst []byte) []byte
	decodeFrom(d *dec)
}

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// appendUint appends a non-negative int as a uvarint. Negative values
// would wrap to 2^64-ish uvarints and come back as overflow errors on
// decode; the wire structs only carry counters, so clamp defensively.
func appendUint(dst []byte, v int) []byte {
	if v < 0 {
		v = 0
	}
	return appendUvarint(dst, uint64(v))
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = appendUint(dst, len(ss))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

// appendBlobs appends a counted list of byte strings (checkpoint chunks
// and pages).
func appendBlobs(dst []byte, bs [][]byte) []byte {
	dst = appendUint(dst, len(bs))
	for _, b := range bs {
		dst = appendBytes(dst, b)
	}
	return dst
}

// appendKeys appends a counted list of page keys, 32 raw octets each.
func appendKeys(dst []byte, ks []checkpoint.Key) []byte {
	dst = appendUint(dst, len(ks))
	for i := range ks {
		dst = append(dst, ks[i][:]...)
	}
	return dst
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendPrefix appends a prefix as its 4 address octets and its length.
func appendPrefix(dst []byte, p netaddr.Prefix) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.Addr()))
	return append(dst, uint8(p.Bits()))
}

// dec consumes a payload with a sticky error: after the first failure
// every read returns zero values, so decode methods read their fields
// straight through and the caller checks err() once. Length fields are
// validated against the remaining payload before any allocation, so a
// corrupted count can never balloon memory.
type dec struct {
	b   []byte
	e   error
	off int // consumed so far, for error messages
}

func newDec(b []byte) *dec { return &dec{b: b} }

func (d *dec) err() error { return d.e }

func (d *dec) fail(format string, args ...any) {
	if d.e == nil {
		d.e = frameErr("at offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

func (d *dec) remaining() int { return len(d.b) }

// finish rejects trailing bytes: a well-formed message consumes its
// whole body, so leftovers mean a codec mismatch or corruption.
func (d *dec) finish() error {
	if d.e == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.e
}

func (d *dec) take(n int) []byte {
	if d.e != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.fail("need %d bytes, have %d", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	d.off += n
	return out
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *dec) uvarint() uint64 {
	if d.e != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	d.off += n
	return v
}

// uint decodes a uvarint that must fit a non-negative int.
func (d *dec) uint() int {
	v := d.uvarint()
	if v > uint64(int(^uint(0)>>1)) {
		d.fail("uvarint %d overflows int", v)
		return 0
	}
	return int(v)
}

func (d *dec) boolean() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool octet")
		return false
	}
}

// bytes decodes a length-prefixed byte string (copied out of the frame,
// so results outlive the read buffer). A nil slice is returned for zero
// length.
func (d *dec) bytes() []byte {
	n := d.uint()
	if n == 0 {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func (d *dec) str() string {
	n := d.uint()
	if n == 0 {
		return ""
	}
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// count decodes a collection length and sanity-checks it against the
// bytes left: every element costs ≥ min bytes, so a count the payload
// cannot possibly hold is rejected before any allocation.
func (d *dec) count(min int) int {
	n := d.uint()
	if d.e != nil {
		return 0
	}
	if n > d.remaining()/min+1 {
		d.fail("count %d exceeds remaining payload", n)
		return 0
	}
	return n
}

// strs decodes a counted string list; nil for an empty one.
func (d *dec) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// blobs decodes appendBlobs' list; nil for an empty one.
func (d *dec) blobs() [][]byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = d.bytes()
	}
	return out
}

// keys decodes appendKeys' list; nil for an empty one.
func (d *dec) keys() []checkpoint.Key {
	n := d.count(len(checkpoint.Key{}))
	if n == 0 {
		return nil
	}
	out := make([]checkpoint.Key, n)
	for i := range out {
		copy(out[i][:], d.take(len(out[i])))
	}
	return out
}

// tailStrs decodes a string list that travels as a conditional tail: the
// encoder omits the whole tail for an empty list, so an explicit zero
// count is trailing garbage, not a layout.
func (d *dec) tailStrs(what string) []string {
	if d.remaining() == 0 {
		return nil
	}
	out := d.strs()
	if out == nil && d.e == nil {
		d.fail("empty %s tail", what)
	}
	return out
}

// maskLen decodes one prefix-length octet, 0..32.
func (d *dec) maskLen() int {
	n := d.u8()
	if n > 32 {
		d.fail("prefix length %d exceeds 32", n)
		return 0
	}
	return int(n)
}

// prefix decodes appendPrefix's 4+1 octets, rejecting lengths over 32 and
// host bits set beyond the mask (the encoding is canonical).
func (d *dec) prefix() netaddr.Prefix {
	addr := netaddr.Addr(d.u32())
	p := netaddr.PrefixFrom(addr, d.maskLen())
	if p.Addr() != addr {
		d.fail("prefix %s has host bits set", addr)
		return netaddr.Prefix{}
	}
	return p
}

// --- Envelope ----------------------------------------------------------------

// Payload kind octets.
const (
	frameRequest  = 0xd2
	frameResponse = 0xd3
)

// appendRequest encodes one request payload. params may be nil for
// parameterless methods.
func appendRequest(dst []byte, id uint64, method string, params message) ([]byte, error) {
	code, err := methodCode(method)
	if err != nil {
		return nil, err
	}
	dst = append(dst, frameRequest)
	dst = appendUvarint(dst, id)
	dst = append(dst, code)
	if params != nil {
		dst = params.appendTo(dst)
	}
	return dst, nil
}

// parseRequest splits a request payload into its envelope; the method
// body is returned raw for decodeParams.
func parseRequest(payload []byte) (id uint64, method string, body []byte, err error) {
	d := newDec(payload)
	if k := d.u8(); d.err() == nil && k != frameRequest {
		d.fail("payload kind %#x is not a request", k)
	}
	id = d.uvarint()
	code := d.u8()
	if d.err() != nil {
		return 0, "", nil, d.err()
	}
	method, err = methodName(code)
	if err != nil {
		return 0, "", nil, err
	}
	return id, method, d.b, nil
}

// appendResponse encodes one response payload: an error string, or the
// method result (nil for empty results).
func appendResponse(dst []byte, id uint64, errMsg string, result message) []byte {
	dst = append(dst, frameResponse)
	dst = appendUvarint(dst, id)
	if errMsg != "" {
		dst = append(dst, 1)
		return appendString(dst, errMsg)
	}
	dst = append(dst, 0)
	if result != nil {
		dst = result.appendTo(dst)
	}
	return dst
}

// parseResponse splits a response payload into its envelope. On
// status=ok the raw result body is returned for the caller (who knows
// which method it answers) to decode; on status=error the error string
// is decoded here and body is nil.
func parseResponse(payload []byte) (id uint64, errMsg string, body []byte, err error) {
	d := newDec(payload)
	if k := d.u8(); d.err() == nil && k != frameResponse {
		d.fail("payload kind %#x is not a response", k)
	}
	id = d.uvarint()
	status := d.u8()
	if d.err() != nil {
		return 0, "", nil, d.err()
	}
	switch status {
	case 0:
		return id, "", d.b, nil
	case 1:
		msg := d.str()
		if err := d.finish(); err != nil {
			return 0, "", nil, err
		}
		return id, msg, nil, nil
	default:
		return 0, "", nil, frameErr("bad response status %d", status)
	}
}

// decodeBody decodes a full method body into msg, rejecting trailing
// bytes. A nil msg accepts only an empty body.
func decodeBody(body []byte, msg message) error {
	d := newDec(body)
	if msg != nil {
		msg.decodeFrom(d)
	}
	return d.finish()
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
		d := newDec(body)
		ver := d.uint()
		if err := d.err(); err != nil {
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

func (p *HelloParams) appendTo(dst []byte) []byte {
	dst = appendUint(dst, p.Version)
	dst = appendUvarint(dst, p.Session)
	// Conditional tail: the property set travels only when non-empty.
	if len(p.Properties) > 0 {
		dst = appendStrings(dst, p.Properties)
	}
	return dst
}

func (p *HelloParams) decodeFrom(d *dec) {
	p.Version = d.uint()
	p.Session = d.uvarint()
	p.Properties = d.tailStrs("properties")
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

func (r *HelloResult) appendTo(dst []byte) []byte {
	dst = appendString(dst, r.Node)
	dst = appendString(dst, r.Topology)
	dst = binary.BigEndian.AppendUint16(dst, r.AS)
	dst = appendUint(dst, r.Prefixes)
	return appendUint(dst, r.Version)
}

func (r *HelloResult) decodeFrom(d *dec) {
	r.Node = d.str()
	r.Topology = d.str()
	r.AS = d.u16()
	r.Prefixes = d.uint()
	r.Version = d.uint()
}

// --- checkpoint --------------------------------------------------------------

// CheckpointResult is one serialized node snapshot.
type CheckpointResult struct {
	// Chunks is the complete serialized node state as the node's stable
	// regions (router.EncodeStateChunks; their concatenation is the
	// router.EncodeState format router.DecodeState restores). The receiver
	// pages them with checkpoint.Store.TakeChunks — the discipline the
	// agent's own store used — so both sides name the same pages.
	Chunks [][]byte
	// Pages/UniquePages account the snapshot in the agent's page store:
	// pages it holds, and how many were new vs shared with earlier
	// snapshots of this node (the fork-COW accounting of §4.1).
	Pages       int
	UniquePages int
}

func (r *CheckpointResult) appendTo(dst []byte) []byte {
	dst = appendBlobs(dst, r.Chunks)
	dst = appendUint(dst, r.Pages)
	return appendUint(dst, r.UniquePages)
}

func (r *CheckpointResult) decodeFrom(d *dec) {
	r.Chunks = d.blobs()
	r.Pages = d.uint()
	r.UniquePages = d.uint()
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

func (k *EngineKnobs) appendTo(dst []byte) []byte {
	dst = appendUint(dst, k.MaxRuns)
	dst = appendUint(dst, k.Workers)
	return append(dst, uint8(k.Strategy))
}

func (k *EngineKnobs) decodeFrom(d *dec) {
	k.MaxRuns = d.uint()
	k.Workers = d.uint()
	if s := d.u8(); s > uint8(concolic.BFS) {
		d.fail("unknown strategy %d", s)
	} else {
		k.Strategy = concolic.Strategy(s)
	}
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

func (p *ExploreParams) appendTo(dst []byte) []byte {
	dst = appendString(dst, p.Peer)
	dst = appendString(dst, p.Scenario)
	dst = appendBool(dst, p.Explicit)
	dst = p.EngineKnobs.appendTo(dst)
	dst = appendBool(dst, p.ReuseState)
	return appendUvarint(dst, p.Round)
}

func (p *ExploreParams) decodeFrom(d *dec) {
	p.Peer = d.str()
	p.Scenario = d.str()
	p.Explicit = d.boolean()
	p.EngineKnobs.decodeFrom(d)
	p.ReuseState = d.boolean()
	p.Round = d.uvarint()
}

// appendFinding encodes a core.Finding's local-oracle fields. Witness and
// MinimalWitness are the coordinator's (it attaches them after cross-
// domain propagation) and never travel; a zero VictimPrefix is "none".
func appendFinding(dst []byte, f *core.Finding) []byte {
	dst = appendString(dst, f.Kind)
	dst = appendString(dst, f.Peer)
	dst = appendPrefix(dst, f.Prefix)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.LeakRange.AddrLo))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.LeakRange.AddrHi))
	dst = append(dst, uint8(f.LeakRange.LenLo), uint8(f.LeakRange.LenHi))
	dst = binary.BigEndian.AppendUint16(dst, f.OriginAS)
	dst = binary.BigEndian.AppendUint16(dst, f.VictimAS)
	dst = appendPrefix(dst, f.VictimPrefix)
	dst = appendUint(dst, f.Seq)
	dst = appendBool(dst, f.Validated)
	dst = appendStrings(dst, f.SpreadTo)
	// Map entries in sorted key order: the encoding is canonical, so
	// encode→decode→encode is byte-stable (the fuzz harness leans on
	// this the way internal/trace's does).
	keys := make([]string, 0, len(f.Input))
	for k := range f.Input {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = appendUint(dst, len(keys))
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendUvarint(dst, f.Input[k])
	}
	return dst
}

func decodeFinding(d *dec, f *core.Finding) {
	f.Kind = d.str()
	f.Peer = d.str()
	f.Prefix = d.prefix()
	f.LeakRange.AddrLo = netaddr.Addr(d.u32())
	f.LeakRange.AddrHi = netaddr.Addr(d.u32())
	f.LeakRange.LenLo = d.maskLen()
	f.LeakRange.LenHi = d.maskLen()
	f.OriginAS = d.u16()
	f.VictimAS = d.u16()
	f.VictimPrefix = d.prefix()
	f.Seq = d.uint()
	f.Validated = d.boolean()
	f.SpreadTo = d.strs()
	if n := d.count(2); n > 0 {
		f.Input = make(map[string]uint64, n)
		for i := 0; i < n; i++ {
			k := d.str()
			f.Input[k] = d.uvarint()
		}
	}
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

func (r *ExploreResult) appendTo(dst []byte) []byte {
	dst = appendString(dst, r.Skipped)
	dst = appendString(dst, r.Scenario)
	dst = appendUint(dst, r.Runs)
	dst = appendUint(dst, r.NewPaths)
	dst = appendUint(dst, r.BranchesSeen)
	dst = appendUint(dst, r.SolverCalls)
	dst = appendUint(dst, r.SolverSat)
	dst = appendUint(dst, r.SolverUnsat)
	dst = appendUint(dst, r.SkippedPaths)
	dst = appendUint(dst, r.SkippedNegations)
	dst = appendUvarint(dst, uint64(r.ElapsedNS))
	dst = appendUint(dst, r.CapturedMessages)
	dst = appendUint(dst, r.WitnessesRejected)
	dst = appendUint(dst, len(r.Findings))
	for i := range r.Findings {
		dst = appendFinding(dst, &r.Findings[i])
	}
	dst = appendUint(dst, len(r.Witnesses))
	for _, w := range r.Witnesses {
		dst = appendUint(dst, w.Finding)
		dst = appendBytes(dst, w.Msg)
	}
	return dst
}

func (r *ExploreResult) decodeFrom(d *dec) {
	r.Skipped = d.str()
	r.Scenario = d.str()
	r.Runs = d.uint()
	r.NewPaths = d.uint()
	r.BranchesSeen = d.uint()
	r.SolverCalls = d.uint()
	r.SolverSat = d.uint()
	r.SolverUnsat = d.uint()
	r.SkippedPaths = d.uint()
	r.SkippedNegations = d.uint()
	r.ElapsedNS = int64(d.uvarint())
	r.CapturedMessages = d.uint()
	r.WitnessesRejected = d.uint()
	if n := d.count(25); n > 0 { // a finding's fixed-width fields alone are 25 octets
		r.Findings = make([]core.Finding, n)
		for i := range r.Findings {
			decodeFinding(d, &r.Findings[i])
		}
	}
	if n := d.count(2); n > 0 {
		r.Witnesses = make([]WireWitness, n)
		for i := range r.Witnesses {
			r.Witnesses[i].Finding = d.uint()
			r.Witnesses[i].Msg = d.bytes()
		}
	}
}

// --- seed / explore_checkpoint -----------------------------------------------

// SeedParams selects which target's scenario seed to derive.
type SeedParams struct {
	Peer     string
	Scenario string
}

func (p *SeedParams) appendTo(dst []byte) []byte {
	dst = appendString(dst, p.Peer)
	return appendString(dst, p.Scenario)
}

func (p *SeedParams) decodeFrom(d *dec) {
	p.Peer = d.str()
	p.Scenario = d.str()
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

func (r *SeedResult) appendTo(dst []byte) []byte {
	dst = appendBytes(dst, r.Msg)
	dst = appendBool(dst, r.Unsupported)
	return appendString(dst, r.Missing)
}

func (r *SeedResult) decodeFrom(d *dec) {
	r.Msg = d.bytes()
	r.Unsupported = d.boolean()
	r.Missing = d.str()
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

func (p *ReplicaExploreParams) appendTo(dst []byte) []byte {
	dst = appendString(dst, p.Node)
	dst = appendStrings(dst, p.Config)
	dst = appendString(dst, p.Peer)
	dst = appendString(dst, p.Scenario)
	dst = appendBool(dst, p.Explicit)
	dst = p.EngineKnobs.appendTo(dst)
	dst = binary.BigEndian.AppendUint32(dst, p.Boundary)
	dst = appendBytes(dst, p.Seed)
	dst = appendBytes(dst, p.WarmState)
	dst = appendUvarint(dst, p.Round)
	dst = appendString(dst, p.Shard)
	dst = appendKeys(dst, p.Keys)
	return appendBlobs(dst, p.Pages)
}

func (p *ReplicaExploreParams) decodeFrom(d *dec) {
	p.Node = d.str()
	p.Config = d.strs()
	p.Peer = d.str()
	p.Scenario = d.str()
	p.Explicit = d.boolean()
	p.EngineKnobs.decodeFrom(d)
	p.Boundary = d.u32()
	p.Seed = d.bytes()
	p.WarmState = d.bytes()
	p.Round = d.uvarint()
	p.Shard = d.str()
	p.Keys = d.keys()
	p.Pages = d.blobs()
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

func (r *ReplicaExploreResult) appendTo(dst []byte) []byte {
	dst = r.ExploreResult.appendTo(dst)
	dst = appendBytes(dst, r.WarmState)
	// Conditional tail: only miss answers carry it.
	if len(r.MissingPages) > 0 {
		dst = appendKeys(dst, r.MissingPages)
	}
	return dst
}

func (r *ReplicaExploreResult) decodeFrom(d *dec) {
	r.ExploreResult.decodeFrom(d)
	r.WarmState = d.bytes()
	if d.remaining() > 0 { // tail; present only on miss answers
		if r.MissingPages = d.keys(); r.MissingPages == nil && d.e == nil {
			// The encoder omits an empty tail, so one here is garbage.
			d.fail("empty missing_pages tail")
		}
	}
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

func (p *ReplayParams) appendTo(dst []byte) []byte {
	dst = appendString(dst, p.Node)
	dst = appendString(dst, p.Peer)
	dst = appendBytes(dst, p.Trace)
	return appendUvarint(dst, p.Key)
}

func (p *ReplayParams) decodeFrom(d *dec) {
	p.Node = d.str()
	p.Peer = d.str()
	p.Trace = d.bytes()
	p.Key = d.uvarint()
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

func (r *ReplayResult) appendTo(dst []byte) []byte {
	dst = appendUint(dst, r.Delivered)
	return appendUint(dst, r.Prefixes)
}

func (r *ReplayResult) decodeFrom(d *dec) {
	r.Delivered = d.uint()
	r.Prefixes = d.uint()
}

// --- shadows: open, inject_witness, close, query_oracle ----------------------

// ShadowOpenResult names a fresh shadow clone.
type ShadowOpenResult struct {
	ShadowID uint64
}

func (r *ShadowOpenResult) appendTo(dst []byte) []byte { return appendUvarint(dst, r.ShadowID) }
func (r *ShadowOpenResult) decodeFrom(d *dec)          { r.ShadowID = d.uvarint() }

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

func (p *InjectBatchParams) appendTo(dst []byte) []byte {
	dst = appendUvarint(dst, p.ShadowID)
	dst = appendUint(dst, len(p.Deliveries))
	for _, dl := range p.Deliveries {
		dst = appendString(dst, dl.From)
		dst = appendBytes(dst, dl.Msg)
		dst = appendPrefix(dst, dl.Watch)
	}
	dst = appendUvarint(dst, p.Key)
	if p.WantProps {
		dst = appendBool(dst, true)
	}
	return dst
}

func (p *InjectBatchParams) decodeFrom(d *dec) {
	p.ShadowID = d.uvarint()
	if n := d.count(7); n > 0 {
		p.Deliveries = make([]BatchDelivery, n)
		for i := range p.Deliveries {
			p.Deliveries[i].From = d.str()
			p.Deliveries[i].Msg = d.bytes()
			p.Deliveries[i].Watch = d.prefix()
		}
	}
	p.Key = d.uvarint()
	if d.remaining() > 0 { // tail; present only when the flag is set
		p.WantProps = d.boolean()
		if !p.WantProps && d.e == nil {
			// The encoder omits the tail entirely when the flag is off, so
			// an explicit false octet is trailing garbage, not a layout.
			d.fail("false want_props tail")
		}
	}
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

func (r *InjectBatchResult) appendTo(dst []byte) []byte {
	dst = appendUint(dst, len(r.Results))
	for i := range r.Results {
		res := &r.Results[i]
		dst = appendUint(dst, len(res.Emitted))
		for _, e := range res.Emitted {
			dst = appendString(dst, e.To)
			dst = appendBytes(dst, e.Msg)
		}
		dst = appendUvarint(dst, res.Before)
		dst = res.After.appendTo(dst)
	}
	return dst
}

func (r *InjectBatchResult) decodeFrom(d *dec) {
	if n := d.count(7); n > 0 {
		r.Results = make([]InjectResult, n)
		for i := range r.Results {
			res := &r.Results[i]
			if m := d.count(2); m > 0 {
				res.Emitted = make([]WireEmission, m)
				for j := range res.Emitted {
					res.Emitted[j].To = d.str()
					res.Emitted[j].Msg = d.bytes()
				}
			}
			res.Before = d.uvarint()
			res.After.decodeFrom(d)
		}
	}
}

// ShadowCloseParams discards a shadow clone.
type ShadowCloseParams struct {
	ShadowID uint64
}

func (p *ShadowCloseParams) appendTo(dst []byte) []byte { return appendUvarint(dst, p.ShadowID) }
func (p *ShadowCloseParams) decodeFrom(d *dec)          { p.ShadowID = d.uvarint() }

// QueryOracleParams asks route facts about one prefix in one shadow.
type QueryOracleParams struct {
	ShadowID uint64
	Prefix   netaddr.Prefix
}

func (p *QueryOracleParams) appendTo(dst []byte) []byte {
	dst = appendUvarint(dst, p.ShadowID)
	return appendPrefix(dst, p.Prefix)
}

func (p *QueryOracleParams) decodeFrom(d *dec) {
	p.ShadowID = d.uvarint()
	p.Prefix = d.prefix()
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

func (r *QueryOracleResult) appendTo(dst []byte) []byte {
	dst = appendUvarint(dst, r.BestToken)
	dst = appendBool(dst, r.HasCovering)
	dst = appendBool(dst, r.CoveringLocal)
	dst = appendString(dst, r.CoveringNextPeer)
	dst = appendUint(dst, len(r.PropMatch))
	for _, m := range r.PropMatch {
		dst = appendBool(dst, m)
	}
	return dst
}

func (r *QueryOracleResult) decodeFrom(d *dec) {
	r.BestToken = d.uvarint()
	r.HasCovering = d.boolean()
	r.CoveringLocal = d.boolean()
	r.CoveringNextPeer = d.str()
	if n := d.count(1); n > 0 {
		r.PropMatch = make([]bool, n)
		for i := range r.PropMatch {
			r.PropMatch[i] = d.boolean()
		}
	}
}

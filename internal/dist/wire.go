package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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
// fixes the width (AS numbers, addresses, prefixes as 4+1 octets),
// uvarints for counts, IDs and route tokens, length-prefixed byte strings
// — BGP messages and replay traces travel as raw bytes, and a dense
// ExploreResult costs bytes proportional to its content. Each payload struct below sits next to its layout: one wire
// method that encodes or decodes, depending on the pass it is handed.
//
// The leading kind octet is not printable ASCII, so a peer speaking
// anything else (a JSON document from a pre-binary build, say) fails
// loudly on its first frame instead of desynchronizing the stream. The
// decoder checks remaining length before consuming, rejects out-of-range
// values (prefix lengths over 32, lying counts) and trailing bytes —
// malformed input errors, it never panics, and truncation at any byte
// offset is an error (FuzzDecodeFrame pins this).
//
// Requests pipeline: a client may keep many requests in flight per
// connection, and responses are matched by ID (the agent preserves
// per-connection order today, but clients must not rely on it).

// ProtoVersion is the one wire protocol version this build speaks. The
// hello carries it in both directions and either side refuses a peer
// whose version differs — there is no negotiation and no down-encoding.
// Any change to a message layout bumps it, and so does one to the raw
// bytes payloads carry (BGP messages, replay traces). Fields that only
// some calls use (HelloParams.Properties, InjectBatchParams.WantProps)
// are encoded as tails that are absent when unused; that keeps the
// common frames small, it is not a compatibility mechanism.
const ProtoVersion = 14

// --- Framing -----------------------------------------------------------------

// maxFrame bounds a single frame; a full-table replay trace is a few MB,
// so 64 MiB leaves ample headroom while still catching a corrupted
// length prefix before it turns into an OOM.
const maxFrame = 64 << 20

// frameHeader is the big-endian payload length that opens every frame.
const frameHeader = 4

// Frame buffers. An outgoing frame is encoded into a pooled buffer with
// the header reserved up front (getFrame), so the encoders append the
// payload behind it and sendFrame writes the slice they built; the buffer
// goes back to the pool (putFrame) once Write has returned. The
// coordinator reads each response into a pooled buffer too and returns
// it once the response is decoded, which is why a decoded response owns
// every byte it holds (coder.msg, coder.name). The agent reads each
// request into a fresh body instead, which the decoded request may alias.
// doc.go states who owns what.

// framePool holds frame buffers. It stores *[]byte so that Put costs no
// allocation.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// A new frame buffer starts at newFrameCap, room for a typical (≈ 75 B)
// frame; the pool keeps none larger than maxPooledFrame, so a replay
// trace or a dense explore answer goes back to the garbage collector
// rather than pinning megabytes under the pool.
const (
	newFrameCap    = 128
	maxPooledFrame = 16 << 10
)

// getFrame takes a buffer from the pool holding just the reserved header.
func getFrame() *[]byte { return getBuf(frameHeader) }

// getBuf takes a buffer from the pool, n bytes long.
func getBuf(n int) *[]byte {
	fp := framePool.Get().(*[]byte)
	if cap(*fp) < n {
		*fp = make([]byte, n, max(n, newFrameCap))
	} else {
		*fp = (*fp)[:n]
	}
	return fp
}

// putFrame returns a buffer to the pool; the caller must hold no slice of
// it any more. *fp may have been grown since getFrame.
func putFrame(fp *[]byte) {
	if cap(*fp) > maxPooledFrame {
		return
	}
	if scribbleFrames.Load() {
		b := (*fp)[:cap(*fp)]
		for i := range b {
			b[i] = 0xa5
		}
	}
	framePool.Put(fp)
}

// scribbleFrames makes putFrame overwrite every buffer it pools, so a
// decoder still reading one, or a decoded message still aliasing one,
// reads garbage at once instead of only when the buffer happens to be
// reused. Tests set it; nothing else does.
var scribbleFrames atomic.Bool

// sendFrame fills in a frame's length and sends it. The header and body
// go out in a single Write so concurrent writers (the pipelined client,
// the agent's per-connection worker) interleave only at whole-frame
// granularity under their write locks.
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
// two (header, body), and readPayload peeks the header in it instead of
// copying it out. Small on purpose — a fleet holds two per connection.
const frameReadBuffer = 512

// readPayload receives one length-prefixed payload into a buffer of
// get's: the agent's get makes a fresh body per request, the
// coordinator's takes one from the pool. The header is peeked in r's
// buffer, so reading it allocates nothing, and get runs only once it has
// arrived: a connection idle between frames holds no buffer.
func readPayload(r *bufio.Reader, get func(n int) []byte) ([]byte, error) {
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("dist: incoming frame of %d bytes exceeds the %d byte limit", n, maxFrame)
	}
	r.Discard(frameHeader) //nolint:errcheck // the header is buffered: Peek returned it
	body := get(int(n))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// freshBody is readPayload's get for a body nothing else will use.
func freshBody(n int) []byte { return make([]byte, n) }

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

// coder is the wire pass: codec.C plus the protocol's domain types, and,
// decoding, where a message's bytes and node names come from (msg, name).
type coder struct {
	codec.C
	// alias lets BGP messages alias the input: set only over a body
	// nothing will reuse (the agent's fresh request bodies).
	alias bool
	// slab is the frame's one copy of the BGP messages it carries when
	// they may not alias the input.
	slab []byte
	// names interns node names; nil decodes each as a fresh string.
	names nameTable
}

func encoder(dst []byte) coder { return coder{C: codec.Encoder(dst)} }
func decoder(src []byte) coder { return coder{C: codec.Decoder(src, errFrame)} }

// decodeWith decodes a full method body, the input of c, into msg,
// rejecting trailing bytes. A nil msg accepts only an empty body.
func decodeWith(c coder, msg message) error {
	if msg != nil {
		c = msg.wire(c)
	}
	return c.Finish()
}

// msg is a BGP message's bytes, Bytes on the wire. Decoding aliases the
// input under alias, and otherwise copies into the frame's slab, sized at
// the first message to everything left in the input: one allocation per
// frame, however many messages it carries.
func (c *coder) msg(v *[]byte) {
	c.View(v)
	if !c.Decoding() || c.alias || len(*v) == 0 {
		return
	}
	if cap(c.slab)-len(c.slab) < len(*v) {
		c.slab = make([]byte, 0, len(*v)+len(c.Buf()))
	}
	n := len(c.slab)
	c.slab = append(c.slab, *v...)
	*v = c.slab[n:len(c.slab):len(c.slab)]
}

// name is a node name, Str on the wire, decoded through the pass's
// intern table.
func (c *coder) name(v *string) {
	if !c.Decoding() {
		c.Str(v)
		return
	}
	var b []byte
	c.View(&b)
	if c.Err() == nil {
		*v = c.names.intern(b)
	}
}

// nameTable interns the node names one connection decodes: the sending
// peers of the requests an agent serves, the emission targets and next
// peers of the answers a coordinator reads. A node's neighbours are few,
// so a handful of strings serves every frame. It is bounded, and owned by
// the connection's one decoding goroutine, so it takes no lock.
type nameTable map[string]string

// A nameTable keeps at most maxNames names of at most maxNameLen bytes;
// any other name decodes as a fresh string.
const (
	maxNames   = 256
	maxNameLen = 64
)

func (t nameTable) intern(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if t != nil && len(t) < maxNames && len(s) <= maxNameLen {
		t[s] = s
	}
	return s
}

// list is codec.List whose decoding reuses the capacity *s already has,
// for a slice its owner decodes into again and again and keeps nothing
// of but what its elements hold. Elements are zeroed before they are
// decoded; a slice without capacity decodes as codec.List's does.
func list[T any](c *coder, s *[]T, min int, elem func(*T)) {
	if !c.Decoding() || cap(*s) == 0 {
		codec.List(&c.C, s, min, elem)
		return
	}
	n := 0
	c.Count(&n, min)
	if c.Err() != nil {
		return
	}
	*s = slices.Grow((*s)[:0], n)[:n]
	clear(*s)
	for i := range *s {
		elem(&(*s)[i])
	}
}

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

// appendRequest encodes one request payload; nil params encode an empty
// body.
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
	// MethodExplore runs one concolic exploration round on the agent's
	// node (checkpoint clone, scenario seed, per-node warm state) and
	// returns findings plus materialized witness announcements.
	MethodExplore = "explore"
	// MethodInjectWitness delivers an ordered run of messages into a
	// shadow clone of the agent's node and returns, for each, what the
	// node would emit in response and how its route for the delivery's
	// watched prefix changed; MethodShadowClose discards the clone. A
	// shadow has no open call: the set's first call to an agent opens it
	// (InjectBatchParams.Open, QueryOracleParams.Open).
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
)

// methodTable is the protocol's schema: every method with its params and
// result types (nil where a method has no result). A method's wire code is its
// index plus one. It is the only place a params type is named for
// decoding — servers decode request bodies through decodeParams, and the
// codec tests and the fuzz harness take their message lists from here.
var methodTable = [...]struct {
	name      string
	newParams func() message
	newResult func() message
}{
	{MethodHello, func() message { return new(HelloParams) }, func() message { return new(HelloResult) }},
	{MethodExplore, func() message { return new(ExploreParams) }, func() message { return new(ExploreResult) }},
	{MethodInjectWitness, func() message { return new(InjectBatchParams) }, func() message { return new(InjectBatchResult) }},
	{MethodShadowClose, func() message { return new(ShadowCloseParams) }, nil},
	{MethodQueryOracle, func() message { return new(QueryOracleParams) }, func() message { return new(QueryOracleResult) }},
	{MethodReplay, func() message { return new(ReplayParams) }, func() message { return new(ReplayResult) }},
}

// --- Exactly once ------------------------------------------------------------

// keyed is a request with an effect a retry must not repeat: memo names
// the slot its answer is remembered in and its key (0: unkeyed, executed
// every time), which the coordinator mints per call from one session
// sequence (rpcServer.execute; doc.go tabulates every method).
type keyed interface {
	memo() (memoSlot, uint64)
}

// memoSlot names one remembered answer: the method plus a number (shadow
// id, replay key) or names (peer and scenario). It is comparable, so a
// slot costs no allocation per call.
type memoSlot struct {
	method string
	num    uint64
	name   [2]string
}

// shadowSlot is a shadow's inject_witness slot.
func shadowSlot(id uint64) memoSlot { return memoSlot{method: MethodInjectWitness, num: id} }

func (p *ExploreParams) memo() (memoSlot, uint64) {
	return memoSlot{method: MethodExplore, name: [2]string{p.Peer, p.Scenario}}, p.Key
}

func (p *InjectBatchParams) memo() (memoSlot, uint64) { return shadowSlot(p.ShadowID), p.Key }

// A replay's slot is its own key, so every replay of the session stays
// remembered (see ReplayParams.Key).
func (p *ReplayParams) memo() (memoSlot, uint64) {
	return memoSlot{method: MethodReplay, num: p.Key}, p.Key
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

// reqDecoder is what one connection's request decoding keeps from one
// request to the next: its intern table, and the inject_witness params
// every such request is decoded into — the handler keeps nothing of them
// but the bytes and names they point to.
type reqDecoder struct {
	names  nameTable
	inject InjectBatchParams
}

// decodeParams decodes a request body into the method's params type. The
// hello's version is read first, and a client speaking another version
// gets an error naming both while the rest of its body — whose layout
// this build may not know — is not interpreted. The params' BGP messages
// alias body, which must therefore be the request's own (readPayload's
// fresh body on the agent); an inject_witness request is decoded into
// d.inject, valid until d's next decode.
func decodeParams(method string, body []byte, d *reqDecoder) (message, error) {
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
			return nil, fmt.Errorf("dist: wire protocol v%d, this agent speaks v%d", ver, ProtoVersion)
		}
	}
	var p message
	if method == MethodInjectWitness {
		d.inject = InjectBatchParams{Deliveries: d.inject.Deliveries[:0]}
		p = &d.inject
	} else {
		p = methodTable[code-1].newParams()
	}
	c := decoder(body)
	c.alias, c.names = true, d.names
	return p, decodeWith(c, p)
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
	// Connect. Keys and shadow ids restart at 1 per session, so a server
	// seeing a new nonce clears its memo (rpcServer.execute); reconnects of
	// the same coordinator still answer retries from it. 0 leaves the memo
	// alone.
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
	// Resumed reports that the server already held the hello's session:
	// its memo and warm exploration state are the coordinator's. False
	// means the node came back cold — a restarted process, a degraded
	// replacement, an agent another coordinator reached in between — and
	// its targets' next explores re-report what the session already
	// returned (Coordinator.dropKnown). Set by rpcServer.execute.
	Resumed bool
}

func (r *HelloResult) wire(c coder) coder {
	c.Str(&r.Node)
	c.Str(&r.Topology)
	c.U16(&r.AS)
	c.Uint(&r.Prefixes)
	c.Uint(&r.Version)
	c.Bool(&r.Resumed)
	return c
}

// --- explore -----------------------------------------------------------------

// EngineKnobs is the serializable subset of concolic.Options, embedded
// in the explore request (Connect rejects the process-local rest:
// State, Cancel). Workers is the fleet's shared pool size.
type EngineKnobs struct {
	MaxRuns int
	Workers int
}

// knobsOf flattens a round's options into their wire form.
func knobsOf(o *core.FederatedOptions) EngineKnobs {
	return EngineKnobs{MaxRuns: o.Engine.MaxRuns, Workers: o.Workers}
}

// options is knobsOf's inverse, on the serving side.
func (k EngineKnobs) options(m *concolic.Metrics) concolic.Options {
	return concolic.Options{MaxRuns: k.MaxRuns, Workers: k.Workers, Metrics: m}
}

func (k *EngineKnobs) wire(c coder) coder {
	c.Uint(&k.MaxRuns)
	c.Uint(&k.Workers)
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
	// Key is the call's idempotency key (keyed): a retry must not
	// re-explore, which under ReuseState would skip the paths the lost
	// answer reported.
	Key uint64
}

func (p *ExploreParams) wire(c coder) coder {
	c.Str(&p.Peer)
	c.Str(&p.Scenario)
	c.Bool(&p.Explicit)
	c = p.EngineKnobs.wire(c)
	c.Bool(&p.ReuseState)
	c.Uvarint(&p.Key)
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
		c.msg(&w.Msg)
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
	// Key is the replay's idempotency key and slot (keyed): re-shipping
	// the coordinator's replay history to a surviving agent double-feeds
	// nothing.
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

// --- shadows: inject_witness, close, query_oracle ----------------------------

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
// all or nothing: an unknown shadow not marked Open or an unknown sending
// peer fails the call before the first delivery.
type InjectBatchParams struct {
	ShadowID uint64
	// Open marks the set's first call to this agent: an agent that does
	// not hold ShadowID opens it (a COW clone of its node) and then
	// serves the call. Any other call on an unknown id is a lost shadow.
	Open       bool
	Deliveries []BatchDelivery
	// Key is the call's idempotency key (keyed): a retry must not
	// deliver twice, which would double-count route churn.
	Key uint64
	// WantProps asks the agent to also evaluate its hello-shipped property
	// set's `at` route predicates against each delivery's after-view
	// (InjectResult.After.PropMatch). Conditional tail: the field adds no
	// bytes when false.
	WantProps bool
}

func (p *InjectBatchParams) wire(c coder) coder {
	c.Uvarint(&p.ShadowID)
	c.Bool(&p.Open)
	list(&c, &p.Deliveries, 7, func(dl *BatchDelivery) {
		c.name(&dl.From)
		c.msg(&dl.Msg)
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
// transport batched. It is what the server remembers under the call's
// key, so a retried delivery reports the same before / after it reported
// the first time.
type InjectBatchResult struct {
	Results []InjectResult
}

func (r *InjectBatchResult) wire(c coder) coder {
	list(&c, &r.Results, 7, func(res *InjectResult) {
		codec.List(&c.C, &res.Emitted, 2, func(e *WireEmission) {
			c.name(&e.To)
			c.msg(&e.Msg)
		})
		c.Uvarint(&res.Before)
		c = res.After.wire(c)
	})
	return c
}

// ShadowCloseParams discards a shadow clone; closing an id that does not
// exist is a no-op.
type ShadowCloseParams struct {
	ShadowID uint64
}

func (p *ShadowCloseParams) wire(c coder) coder {
	c.Uvarint(&p.ShadowID)
	return c
}

// QueryOracleParams asks route facts about one prefix in one shadow;
// Open is InjectBatchParams.Open.
type QueryOracleParams struct {
	ShadowID uint64
	Open     bool
	Prefix   netaddr.Prefix
}

func (p *QueryOracleParams) wire(c coder) coder {
	c.Uvarint(&p.ShadowID)
	c.Bool(&p.Open)
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
	// BestToken is core.RouteView.Token as the node's shadow minted it
	// (core.NodeShadow, the same on both backends): tokens start at 1 and
	// 0 means the node has no best route for the prefix. Any
	// re-installation — even of byte-identical content — yields a new
	// token.
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
	c.name(&r.CoveringNextPeer)
	codec.List(&c.C, &r.PropMatch, 1, c.Bool)
	return c
}

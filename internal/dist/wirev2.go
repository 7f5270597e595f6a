package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"dice/internal/netaddr"
)

// The binary payload codec behind the length-prefixed framing of
// wire.go. The style follows internal/bgp's message codec — fixed-width
// fields where the domain fixes the width (AS numbers, addresses),
// uvarints for counts and IDs, length-prefixed byte strings — so a dense
// ExploreResult costs bytes proportional to its content.
//
// Payload layouts:
//
//	request:  0xD2 | uvarint id | u8 method code | method params
//	response: 0xD3 | uvarint id | u8 status      | error string (status=1)
//	                                             | method result (status=0)
//
// The leading kind octet is not printable ASCII, so a peer speaking
// anything else (a JSON document from a pre-binary build, say) fails
// loudly on its first frame instead of desynchronizing the stream. Every
// decoder checks remaining length before consuming and rejects trailing
// bytes — malformed input errors, it never panics, and truncation at any
// byte offset is an error (FuzzDecodeFrame pins this).

// Payload kind octets.
const (
	frameRequestV2  = 0xd2
	frameResponseV2 = 0xd3
)

// methodTable lists every method; a method's wire code is its index plus
// one, so new methods are appended and codes never move.
var methodTable = [...]string{
	MethodHello,
	MethodCheckpoint,
	MethodExplore,
	MethodShadowOpen,
	MethodInjectWitness,
	MethodShadowClose,
	MethodQueryOracle,
	MethodReplay,
	MethodInjectWitnessBatch,
	MethodSeed,
	MethodExploreCheckpoint,
}

// methodCode maps a method name to its wire code.
func methodCode(method string) (uint8, error) {
	for i, name := range methodTable {
		if name == method {
			return uint8(i + 1), nil
		}
	}
	return 0, fmt.Errorf("dist: method %q has no wire code", method)
}

// methodName maps a wire code back to its method name.
func methodName(code uint8) (string, error) {
	if code == 0 || int(code) > len(methodTable) {
		return "", v2err("unknown method code %d", code)
	}
	return methodTable[code-1], nil
}

// errV2Frame is the malformed-payload error class; every decode
// failure wraps it so transports can distinguish protocol corruption
// from application errors.
var errV2Frame = errors.New("dist: malformed frame")

func v2err(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errV2Frame, fmt.Sprintf(format, args...))
}

// v2Message is any payload the codec carries: params and results
// append themselves to a buffer and decode from a v2dec. decodeV2 must
// leave the struct fully populated or record an error on the decoder;
// the codec layer enforces that the message consumed its entire body.
type v2Message interface {
	appendV2(dst []byte) []byte
	decodeV2(d *v2dec)
}

// --- primitive append helpers ------------------------------------------------

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

func appendBytesV2(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendStringV2(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBoolV2(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// --- sticky-error decoder ----------------------------------------------------

// v2dec consumes a payload with a sticky error: after the first
// failure every read returns zero values, so decode methods read their
// fields straight through and the caller checks err() once. Length
// fields are validated against the remaining payload before any
// allocation, so a corrupted count can never balloon memory.
type v2dec struct {
	b   []byte
	e   error
	off int // consumed so far, for error messages
}

func newV2dec(b []byte) *v2dec { return &v2dec{b: b} }

func (d *v2dec) err() error { return d.e }

func (d *v2dec) fail(format string, args ...any) {
	if d.e == nil {
		d.e = v2err("at offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

func (d *v2dec) remaining() int { return len(d.b) }

// finish rejects trailing bytes: a well-formed message consumes its
// whole body, so leftovers mean a codec mismatch or corruption.
func (d *v2dec) finish() error {
	if d.e == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.e
}

func (d *v2dec) take(n int) []byte {
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

func (d *v2dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *v2dec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *v2dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *v2dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *v2dec) uvarint() uint64 {
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
func (d *v2dec) uint() int {
	v := d.uvarint()
	if v > uint64(int(^uint(0)>>1)) {
		d.fail("uvarint %d overflows int", v)
		return 0
	}
	return int(v)
}

func (d *v2dec) boolean() bool {
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
func (d *v2dec) bytes() []byte {
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

func (d *v2dec) str() string {
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
func (d *v2dec) count(min int) int {
	n := d.uint()
	if d.e != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > d.remaining()/min+1 {
		d.fail("count %d exceeds remaining payload", n)
		return 0
	}
	return n
}

// --- request / response envelopes --------------------------------------------

// appendRequestV2 encodes one request payload. params may be nil for
// parameterless methods.
func appendRequestV2(dst []byte, id uint64, method string, params v2Message) ([]byte, error) {
	code, err := methodCode(method)
	if err != nil {
		return nil, err
	}
	dst = append(dst, frameRequestV2)
	dst = appendUvarint(dst, id)
	dst = append(dst, code)
	if params != nil {
		dst = params.appendV2(dst)
	}
	return dst, nil
}

// parseRequestV2 splits a request payload into its envelope; the method
// body is returned raw for the typed dispatcher to decode.
func parseRequestV2(payload []byte) (id uint64, method string, body []byte, err error) {
	d := newV2dec(payload)
	if k := d.u8(); d.err() == nil && k != frameRequestV2 {
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

// appendResponseV2 encodes one response payload: an error string, or the
// method result (nil for empty results).
func appendResponseV2(dst []byte, id uint64, errMsg string, result v2Message) []byte {
	dst = append(dst, frameResponseV2)
	dst = appendUvarint(dst, id)
	if errMsg != "" {
		dst = append(dst, 1)
		return appendStringV2(dst, errMsg)
	}
	dst = append(dst, 0)
	if result != nil {
		dst = result.appendV2(dst)
	}
	return dst
}

// parseResponseV2 splits a response payload into its envelope. On
// status=ok the raw result body is returned for the caller (who knows
// which method it answers) to decode; on status=error the error string
// is decoded here and body is nil.
func parseResponseV2(payload []byte) (id uint64, errMsg string, body []byte, err error) {
	d := newV2dec(payload)
	if k := d.u8(); d.err() == nil && k != frameResponseV2 {
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
		return 0, "", nil, v2err("bad response status %d", status)
	}
}

// decodeBodyV2 decodes a full method body into msg, rejecting trailing
// bytes. A nil msg accepts only an empty body.
func decodeBodyV2(body []byte, msg v2Message) error {
	d := newV2dec(body)
	if msg != nil {
		msg.decodeV2(d)
	}
	return d.finish()
}

// --- message codecs ----------------------------------------------------------

func (p *HelloParams) appendV2(dst []byte) []byte {
	dst = appendUint(dst, p.Version)
	dst = appendUvarint(dst, p.Session)
	// Conditional tail: the property set travels only when non-empty.
	if len(p.Properties) > 0 {
		dst = appendUint(dst, len(p.Properties))
		for _, s := range p.Properties {
			dst = appendStringV2(dst, s)
		}
	}
	return dst
}

func (p *HelloParams) decodeV2(d *v2dec) {
	p.Version = d.uint()
	p.Session = d.uvarint()
	if d.remaining() > 0 { // tail; present only when properties ship
		n := d.count(1)
		if n == 0 && d.e == nil {
			// The encoder omits the whole tail for an empty set, so an
			// explicit zero count is trailing garbage, not a layout.
			d.fail("empty properties tail")
		}
		if n > 0 {
			p.Properties = make([]string, n)
			for i := range p.Properties {
				p.Properties[i] = d.str()
			}
		}
	}
}

func (r *HelloResult) appendV2(dst []byte) []byte {
	dst = appendStringV2(dst, r.Node)
	dst = appendStringV2(dst, r.Topology)
	dst = binary.BigEndian.AppendUint16(dst, r.AS)
	dst = appendUint(dst, r.Prefixes)
	return appendUint(dst, r.Version)
}

func (r *HelloResult) decodeV2(d *v2dec) {
	r.Node = d.str()
	r.Topology = d.str()
	r.AS = d.u16()
	r.Prefixes = d.uint()
	r.Version = d.uint()
}

func (r *CheckpointResult) appendV2(dst []byte) []byte {
	dst = appendBytesV2(dst, r.State)
	dst = appendUint(dst, r.Pages)
	return appendUint(dst, r.UniquePages)
}

func (r *CheckpointResult) decodeV2(d *v2dec) {
	r.State = d.bytes()
	r.Pages = d.uint()
	r.UniquePages = d.uint()
}

func (k *EngineKnobs) appendV2(dst []byte) []byte {
	dst = appendUint(dst, k.MaxRuns)
	dst = appendUint(dst, k.MaxDepth)
	dst = appendUint(dst, k.Workers)
	dst = appendUint(dst, k.SolverNodes)
	dst = appendStringV2(dst, k.Strategy)
	return appendUvarint(dst, uint64(k.TimeBudgetNS))
}

func (k *EngineKnobs) decodeV2(d *v2dec) {
	k.MaxRuns = d.uint()
	k.MaxDepth = d.uint()
	k.Workers = d.uint()
	k.SolverNodes = d.uint()
	k.Strategy = d.str()
	k.TimeBudgetNS = int64(d.uvarint())
}

func (p *ExploreParams) appendV2(dst []byte) []byte {
	dst = appendStringV2(dst, p.Peer)
	dst = appendStringV2(dst, p.Scenario)
	dst = appendBoolV2(dst, p.Explicit)
	dst = p.EngineKnobs.appendV2(dst)
	dst = appendBoolV2(dst, p.ReuseState)
	return appendUvarint(dst, p.Round)
}

func (p *ExploreParams) decodeV2(d *v2dec) {
	p.Peer = d.str()
	p.Scenario = d.str()
	p.Explicit = d.boolean()
	p.EngineKnobs.decodeV2(d)
	p.ReuseState = d.boolean()
	p.Round = d.uvarint()
}

func appendFindingV2(dst []byte, f *WireFinding) []byte {
	dst = appendStringV2(dst, f.Kind)
	dst = appendStringV2(dst, f.Peer)
	dst = appendStringV2(dst, f.Prefix)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.LeakRange.AddrLo))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.LeakRange.AddrHi))
	dst = append(dst, uint8(f.LeakRange.LenLo), uint8(f.LeakRange.LenHi))
	dst = binary.BigEndian.AppendUint16(dst, f.OriginAS)
	dst = binary.BigEndian.AppendUint16(dst, f.VictimAS)
	dst = appendStringV2(dst, f.VictimPrefix)
	dst = appendUint(dst, f.Seq)
	dst = appendBoolV2(dst, f.Validated)
	dst = appendUint(dst, len(f.SpreadTo))
	for _, s := range f.SpreadTo {
		dst = appendStringV2(dst, s)
	}
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
		dst = appendStringV2(dst, k)
		dst = appendUvarint(dst, f.Input[k])
	}
	return appendStringV2(dst, f.Rendered)
}

func decodeFindingV2(d *v2dec, f *WireFinding) {
	f.Kind = d.str()
	f.Peer = d.str()
	f.Prefix = d.str()
	f.LeakRange.AddrLo = netaddr.Addr(d.u32())
	f.LeakRange.AddrHi = netaddr.Addr(d.u32())
	f.LeakRange.LenLo = int(d.u8())
	f.LeakRange.LenHi = int(d.u8())
	f.OriginAS = d.u16()
	f.VictimAS = d.u16()
	f.VictimPrefix = d.str()
	f.Seq = d.uint()
	f.Validated = d.boolean()
	if n := d.count(1); n > 0 {
		f.SpreadTo = make([]string, n)
		for i := range f.SpreadTo {
			f.SpreadTo[i] = d.str()
		}
	}
	if n := d.count(2); n > 0 {
		f.Input = make(map[string]uint64, n)
		for i := 0; i < n; i++ {
			k := d.str()
			f.Input[k] = d.uvarint()
		}
	}
	f.Rendered = d.str()
}

func (r *ExploreResult) appendV2(dst []byte) []byte {
	dst = appendStringV2(dst, r.Skipped)
	dst = appendStringV2(dst, r.Scenario)
	dst = appendUint(dst, r.Runs)
	dst = appendUint(dst, r.NewPaths)
	dst = appendUint(dst, r.BranchesSeen)
	dst = appendUint(dst, r.SolverCalls)
	dst = appendUint(dst, r.SolverSat)
	dst = appendUint(dst, r.SolverUnsat)
	dst = appendUint(dst, r.CacheHits)
	dst = appendUint(dst, r.SkippedPaths)
	dst = appendUint(dst, r.SkippedNegations)
	dst = appendUvarint(dst, uint64(r.ElapsedNS))
	dst = appendUint(dst, r.CapturedMessages)
	dst = appendUint(dst, r.WitnessesRejected)
	dst = appendUint(dst, len(r.Findings))
	for i := range r.Findings {
		dst = appendFindingV2(dst, &r.Findings[i])
	}
	dst = appendUint(dst, len(r.Witnesses))
	for _, w := range r.Witnesses {
		dst = appendUint(dst, w.Finding)
		dst = appendBytesV2(dst, w.Msg)
	}
	return dst
}

func (r *ExploreResult) decodeV2(d *v2dec) {
	r.Skipped = d.str()
	r.Scenario = d.str()
	r.Runs = d.uint()
	r.NewPaths = d.uint()
	r.BranchesSeen = d.uint()
	r.SolverCalls = d.uint()
	r.SolverSat = d.uint()
	r.SolverUnsat = d.uint()
	r.CacheHits = d.uint()
	r.SkippedPaths = d.uint()
	r.SkippedNegations = d.uint()
	r.ElapsedNS = int64(d.uvarint())
	r.CapturedMessages = d.uint()
	r.WitnessesRejected = d.uint()
	if n := d.count(1); n > 0 {
		r.Findings = make([]WireFinding, n)
		for i := range r.Findings {
			decodeFindingV2(d, &r.Findings[i])
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

func (p *SeedParams) appendV2(dst []byte) []byte {
	dst = appendStringV2(dst, p.Peer)
	return appendStringV2(dst, p.Scenario)
}

func (p *SeedParams) decodeV2(d *v2dec) {
	p.Peer = d.str()
	p.Scenario = d.str()
}

func (r *SeedResult) appendV2(dst []byte) []byte {
	dst = appendBytesV2(dst, r.Msg)
	dst = appendBoolV2(dst, r.Unsupported)
	return appendStringV2(dst, r.Missing)
}

func (r *SeedResult) decodeV2(d *v2dec) {
	r.Msg = d.bytes()
	r.Unsupported = d.boolean()
	r.Missing = d.str()
}

func (p *ReplicaExploreParams) appendV2(dst []byte) []byte {
	dst = appendStringV2(dst, p.Node)
	dst = appendUint(dst, len(p.Config))
	for _, line := range p.Config {
		dst = appendStringV2(dst, line)
	}
	dst = appendBytesV2(dst, p.State)
	dst = appendStringV2(dst, p.Peer)
	dst = appendStringV2(dst, p.Scenario)
	dst = appendBoolV2(dst, p.Explicit)
	dst = p.EngineKnobs.appendV2(dst)
	dst = binary.BigEndian.AppendUint32(dst, p.Boundary)
	dst = appendBytesV2(dst, p.Seed)
	dst = appendBytesV2(dst, p.WarmState)
	dst = appendUvarint(dst, p.Round)
	dst = appendStringV2(dst, p.Shard)
	// Conditional tail: page mode. An unused tail (full-state shipment)
	// adds no bytes. The hash/data guards keep decode→encode canonical for
	// frames a sender would never build (PageSize 0 with pages attached).
	if p.PageSize > 0 || len(p.PageHash) > 0 || len(p.PageData) > 0 {
		dst = appendUint(dst, p.PageSize)
		dst = appendUint(dst, len(p.PageHash))
		for _, h := range p.PageHash {
			dst = appendStringV2(dst, h)
		}
		dst = appendUint(dst, len(p.PageData))
		for _, pg := range p.PageData {
			dst = appendBytesV2(dst, pg)
		}
	}
	return dst
}

func (p *ReplicaExploreParams) decodeV2(d *v2dec) {
	p.Node = d.str()
	if n := d.count(1); n > 0 {
		p.Config = make([]string, n)
		for i := range p.Config {
			p.Config[i] = d.str()
		}
	}
	p.State = d.bytes()
	p.Peer = d.str()
	p.Scenario = d.str()
	p.Explicit = d.boolean()
	p.EngineKnobs.decodeV2(d)
	p.Boundary = d.u32()
	p.Seed = d.bytes()
	p.WarmState = d.bytes()
	p.Round = d.uvarint()
	p.Shard = d.str()
	if d.remaining() > 0 { // tail; present only in page mode
		p.PageSize = d.uint()
		if n := d.count(1); n > 0 {
			p.PageHash = make([]string, n)
			for i := range p.PageHash {
				p.PageHash[i] = d.str()
			}
		}
		if n := d.count(1); n > 0 {
			p.PageData = make([][]byte, n)
			for i := range p.PageData {
				p.PageData[i] = d.bytes()
			}
		}
		if p.PageSize == 0 && p.PageHash == nil && p.PageData == nil && d.e == nil {
			// The encoder omits an all-zero tail, so one here is garbage.
			d.fail("empty page-mode tail")
		}
	}
}

func (r *ReplicaExploreResult) appendV2(dst []byte) []byte {
	dst = r.ExploreResult.appendV2(dst)
	dst = appendBytesV2(dst, r.WarmState)
	// Conditional tail: only cache-miss answers carry it, and only
	// page-mode senders get those.
	if len(r.MissingPages) > 0 {
		dst = appendUint(dst, len(r.MissingPages))
		for _, h := range r.MissingPages {
			dst = appendStringV2(dst, h)
		}
	}
	return dst
}

func (r *ReplicaExploreResult) decodeV2(d *v2dec) {
	r.ExploreResult.decodeV2(d)
	r.WarmState = d.bytes()
	if d.remaining() > 0 { // tail; present only on cache-miss answers
		n := d.count(1)
		if n == 0 && d.e == nil {
			d.fail("empty missing_pages tail")
		}
		if n > 0 {
			r.MissingPages = make([]string, n)
			for i := range r.MissingPages {
				r.MissingPages[i] = d.str()
			}
		}
	}
}

func (p *ReplayParams) appendV2(dst []byte) []byte {
	dst = appendStringV2(dst, p.Node)
	dst = appendStringV2(dst, p.Peer)
	dst = appendBytesV2(dst, p.Trace)
	return appendUvarint(dst, p.Key)
}

func (p *ReplayParams) decodeV2(d *v2dec) {
	p.Node = d.str()
	p.Peer = d.str()
	p.Trace = d.bytes()
	p.Key = d.uvarint()
}

func (r *ReplayResult) appendV2(dst []byte) []byte {
	dst = appendUint(dst, r.Delivered)
	return appendUint(dst, r.Prefixes)
}

func (r *ReplayResult) decodeV2(d *v2dec) {
	r.Delivered = d.uint()
	r.Prefixes = d.uint()
}

func (r *ShadowOpenResult) appendV2(dst []byte) []byte {
	return appendUvarint(dst, r.ShadowID)
}

func (r *ShadowOpenResult) decodeV2(d *v2dec) {
	r.ShadowID = d.uvarint()
}

func (p *InjectParams) appendV2(dst []byte) []byte {
	dst = appendUvarint(dst, p.ShadowID)
	dst = appendStringV2(dst, p.From)
	dst = appendBytesV2(dst, p.Msg)
	return appendUvarint(dst, p.Key)
}

func (p *InjectParams) decodeV2(d *v2dec) {
	p.ShadowID = d.uvarint()
	p.From = d.str()
	p.Msg = d.bytes()
	p.Key = d.uvarint()
}

func appendInjectResultV2(dst []byte, r *InjectResult) []byte {
	dst = appendUint(dst, len(r.Emitted))
	for _, e := range r.Emitted {
		dst = appendStringV2(dst, e.To)
		dst = appendBytesV2(dst, e.Msg)
	}
	return dst
}

func decodeInjectResultV2(d *v2dec, r *InjectResult) {
	if n := d.count(2); n > 0 {
		r.Emitted = make([]WireEmission, n)
		for i := range r.Emitted {
			r.Emitted[i].To = d.str()
			r.Emitted[i].Msg = d.bytes()
		}
	}
}

func (r *InjectResult) appendV2(dst []byte) []byte { return appendInjectResultV2(dst, r) }
func (r *InjectResult) decodeV2(d *v2dec)          { decodeInjectResultV2(d, r) }

func (p *InjectBatchParams) appendV2(dst []byte) []byte {
	dst = appendUvarint(dst, p.ShadowID)
	dst = appendUint(dst, len(p.Deliveries))
	for _, dl := range p.Deliveries {
		dst = appendStringV2(dst, dl.From)
		dst = appendBytesV2(dst, dl.Msg)
	}
	return appendUvarint(dst, p.Key)
}

func (p *InjectBatchParams) decodeV2(d *v2dec) {
	p.ShadowID = d.uvarint()
	if n := d.count(2); n > 0 {
		p.Deliveries = make([]BatchDelivery, n)
		for i := range p.Deliveries {
			p.Deliveries[i].From = d.str()
			p.Deliveries[i].Msg = d.bytes()
		}
	}
	p.Key = d.uvarint()
}

func (r *InjectBatchResult) appendV2(dst []byte) []byte {
	dst = appendUint(dst, len(r.Results))
	for i := range r.Results {
		dst = appendInjectResultV2(dst, &r.Results[i])
	}
	return dst
}

func (r *InjectBatchResult) decodeV2(d *v2dec) {
	if n := d.count(1); n > 0 {
		r.Results = make([]InjectResult, n)
		for i := range r.Results {
			decodeInjectResultV2(d, &r.Results[i])
		}
	}
}

func (p *ShadowCloseParams) appendV2(dst []byte) []byte {
	return appendUvarint(dst, p.ShadowID)
}

func (p *ShadowCloseParams) decodeV2(d *v2dec) {
	p.ShadowID = d.uvarint()
}

func (p *QueryOracleParams) appendV2(dst []byte) []byte {
	dst = appendUvarint(dst, p.ShadowID)
	dst = appendStringV2(dst, p.Prefix)
	// Conditional tail: a false WantProps adds no bytes.
	if p.WantProps {
		dst = appendBoolV2(dst, true)
	}
	return dst
}

func (p *QueryOracleParams) decodeV2(d *v2dec) {
	p.ShadowID = d.uvarint()
	p.Prefix = d.str()
	if d.remaining() > 0 { // tail; present only when the flag is set
		p.WantProps = d.boolean()
		if !p.WantProps && d.e == nil {
			// The encoder omits the tail entirely when the flag is off, so
			// an explicit false octet is trailing garbage, not a layout.
			d.fail("false want_props tail")
		}
	}
}

func (r *QueryOracleResult) appendV2(dst []byte) []byte {
	dst = appendBoolV2(dst, r.HasBest)
	dst = appendStringV2(dst, r.BestFP)
	dst = appendBoolV2(dst, r.HasCovering)
	dst = appendBoolV2(dst, r.CoveringLocal)
	dst = appendStringV2(dst, r.CoveringNextPeer)
	// Conditional tail: agents fill PropMatch only for WantProps requests.
	if len(r.PropMatch) > 0 {
		dst = appendUint(dst, len(r.PropMatch))
		for _, m := range r.PropMatch {
			dst = appendBoolV2(dst, m)
		}
	}
	return dst
}

func (r *QueryOracleResult) decodeV2(d *v2dec) {
	r.HasBest = d.boolean()
	r.BestFP = d.str()
	r.HasCovering = d.boolean()
	r.CoveringLocal = d.boolean()
	r.CoveringNextPeer = d.str()
	if d.remaining() > 0 { // tail; present only on WantProps answers
		n := d.count(1)
		if n == 0 && d.e == nil {
			d.fail("empty prop_match tail")
		}
		if n > 0 {
			r.PropMatch = make([]bool, n)
			for i := range r.PropMatch {
				r.PropMatch[i] = d.boolean()
			}
		}
	}
}

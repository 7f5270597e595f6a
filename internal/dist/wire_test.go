package dist

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dice/internal/checkpoint"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/netaddr"
)

// paramsFor returns a fresh instance of the method's params type from
// the method table (nil for a parameterless method).
func paramsFor(method string) message {
	code, err := methodCode(method)
	if err != nil {
		panic(err)
	}
	if np := methodTable[code-1].newParams; np != nil {
		return np()
	}
	return nil
}

// resultTypes returns a fresh instance of every result type in the
// method table.
func resultTypes() []message {
	var out []message
	for _, m := range methodTable {
		if m.newResult != nil {
			out = append(out, m.newResult())
		}
	}
	return out
}

// sampleMessages returns at least one fully-populated instance of every
// message type in the method table (TestRoundTripProperty checks the
// coverage both ways). Round-trip, truncation and fuzz-seed tests
// iterate these, so new fields belong in the samples the moment they
// grow a codec.
func sampleMessages() []message {
	return []message{
		&HelloParams{Version: ProtoVersion, Session: 0xfeedbeefcafe,
			Properties: []string{
				`property "leak" { never carries community boundary at node behind boundary }`,
				`property "converge" { eventually converges within 64 steps }`,
			}},
		&HelloResult{Node: "as65002", Topology: "line-3-dense-256", AS: 65002, Prefixes: 771, Version: ProtoVersion},
		&CheckpointResult{Chunks: [][]byte{{'R', 'T', 'R', '1'}, {0xca, 0xfe, 0x00, 0x01}}, Pages: 12, UniquePages: 3},
		&ExploreParams{
			Peer: "as65001", Scenario: "route-leak", Explicit: true,
			EngineKnobs: EngineKnobs{MaxRuns: 200, Workers: 4, Strategy: concolic.DFS},
			ReuseState:  true, Round: 3,
		},
		&ExploreResult{
			Skipped: "", Scenario: "route-leak",
			Runs: 41, NewPaths: 7, BranchesSeen: 120, SolverCalls: 33, SolverSat: 21,
			SolverUnsat: 12, SkippedPaths: 2, SkippedNegations: 5,
			ElapsedNS: 1_234_567, CapturedMessages: 3, WitnessesRejected: 1,
			Findings: []core.Finding{
				{
					Kind: "route-leak", Peer: "as65001", Prefix: netaddr.MustParsePrefix("10.200.0.0/24"),
					LeakRange: core.RangeDesc{
						AddrLo: netaddr.AddrFrom4(10, 0, 0, 0), AddrHi: netaddr.AddrFrom4(10, 255, 255, 255),
						LenLo: 24, LenHi: 32,
					},
					OriginAS: 65001, VictimAS: 65003, VictimPrefix: netaddr.MustParsePrefix("10.18.0.0/16"),
					Seq: 17, Validated: true, SpreadTo: []string{"as65003", "as65004"},
					Input: map[string]uint64{"addr": 0x0ac80000, "community": 0xFFFFFF01, "len": 24},
				},
				{Kind: "blackhole", Peer: "as65003", Prefix: netaddr.MustParsePrefix("10.17.0.0/16")},
			},
			Witnesses: []WireWitness{{Finding: 0, Msg: []byte{0x02, 0x00, 0x17}}, {Finding: 1, Msg: []byte{0x01}}},
		},
		&ExploreResult{Skipped: "no observed seed"},
		&ReplayParams{Node: "as65001", Peer: "stub", Trace: []byte("MRTLfakebytes"), Key: 11},
		&ReplayResult{Delivered: 250, Prefixes: 771},
		&ShadowOpenResult{ShadowID: 7},
		&InjectBatchParams{ShadowID: 7, Deliveries: []BatchDelivery{
			{From: "as65001", Msg: []byte{0x01, 0x02}, Watch: netaddr.MustParsePrefix("10.200.0.0/24")},
			{From: "as65003", Msg: []byte{0x03}, Watch: netaddr.MustParsePrefix("10.80.3.0/24")},
		}, Key: 6, WantProps: true},
		&InjectBatchParams{ShadowID: 8, Deliveries: []BatchDelivery{{From: "as65001", Msg: []byte{0x04}}}, Key: 7},
		&InjectBatchResult{Results: []InjectResult{
			{Emitted: []WireEmission{{To: "as65003", Msg: []byte{0xbb, 0xcc}}, {To: "as65001", Msg: nil}},
				Before: 41, After: QueryOracleResult{BestToken: 42, HasCovering: true, CoveringNextPeer: "as65002",
					PropMatch: []bool{true, false, true}}},
			{After: QueryOracleResult{HasCovering: true, CoveringLocal: true}},
			{},
		}},
		&ShadowCloseParams{ShadowID: 7},
		&QueryOracleParams{ShadowID: 7, Prefix: netaddr.MustParsePrefix("10.200.0.0/24")},
		&QueryOracleResult{BestToken: 42, HasCovering: true, CoveringLocal: false, CoveringNextPeer: "as65002",
			PropMatch: []bool{true, false, true}},
		&ReplicaExploreParams{
			Node: "as65002", Config: []string{"router bgp 65002", " neighbor up"},
			Peer: "as65001", Scenario: "route-leak",
			Explicit:    true,
			EngineKnobs: EngineKnobs{MaxRuns: 120, Workers: 2, Strategy: concolic.BFS},
			Boundary:    0xFFFF_FF01, Seed: []byte{0x02, 0x00, 0x17}, WarmState: []byte{0x7a}, Round: 4, Shard: "as65002/as65001#0",
			Keys:  []checkpoint.Key{{0x6c, 0xd5}, {0xa0, 0x01}, {0x6c, 0xd5}},
			Pages: [][]byte{{0xca, 0xfe}, {0x00}},
		},
		&ReplicaExploreResult{
			ExploreResult: ExploreResult{Scenario: "route-leak", Runs: 17, ElapsedNS: 99},
			WarmState:     []byte{0x7b, 0x7c},
			MissingPages:  []checkpoint.Key{{0xa0, 0x01}, {0x6c, 0xd5}},
		},
		&SeedParams{Peer: "as65001", Scenario: "route-leak"},
		&SeedResult{Msg: []byte{0x02, 0x00, 0x17}, Missing: "no observed seed"},
	}
}

// encodeBody appends msg's body to dst.
func encodeBody(dst []byte, msg message) []byte {
	c := msg.wire(encoder(dst))
	return c.Buf()
}

// freshLike returns a zero-valued instance of the same concrete message
// type, for decoding into.
func freshLike(msg message) message {
	return reflect.New(reflect.TypeOf(msg).Elem()).Interface().(message)
}

// TestRoundTripProperty: encode→decode returns every message unchanged,
// and the encoding is canonical (re-encoding the decoded value yields
// identical bytes — map fields are written in sorted key order, so this
// holds even for ExploreResult's Input maps). The samples and the method
// table must name exactly the same message types.
func TestRoundTripProperty(t *testing.T) {
	sampled := map[reflect.Type]bool{}
	for _, msg := range sampleMessages() {
		sampled[reflect.TypeOf(msg)] = true
	}
	inTable := map[reflect.Type]bool{}
	for _, m := range methodTable {
		if p := paramsFor(m.name); p != nil {
			inTable[reflect.TypeOf(p)] = true
		}
	}
	for _, r := range resultTypes() {
		inTable[reflect.TypeOf(r)] = true
	}
	for ty := range inTable {
		if !sampled[ty] {
			t.Errorf("method table type %v has no sample", ty)
		}
	}
	for ty := range sampled {
		if !inTable[ty] {
			t.Errorf("sample type %v is not in the method table", ty)
		}
	}
	for i, msg := range sampleMessages() {
		body := encodeBody(nil, msg)
		got := freshLike(msg)
		if err := decodeBody(body, got); err != nil {
			t.Errorf("sample %d (%T): decode of own encoding failed: %v", i, msg, err)
			continue
		}
		if again := encodeBody(nil, got); !reflect.DeepEqual(again, body) {
			t.Errorf("sample %d (%T): re-encoding is not canonical:\n first: %x\n again: %x", i, msg, body, again)
		}
		// Value equality up to nil-vs-empty (the codec returns nil for
		// zero-length collections).
		reBody := encodeBody(nil, got)
		reGot := freshLike(msg)
		if err := decodeBody(reBody, reGot); err != nil {
			t.Errorf("sample %d (%T): second decode failed: %v", i, msg, err)
			continue
		}
		if !reflect.DeepEqual(got, reGot) {
			t.Errorf("sample %d (%T): decode not stable:\n first: %+v\n again: %+v", i, msg, got, reGot)
		}
	}
}

// methodOf names the method whose params or result type msg is.
func methodOf(msg message) string {
	ty := reflect.TypeOf(msg)
	for _, m := range methodTable {
		if m.newParams != nil && reflect.TypeOf(m.newParams()) == ty ||
			m.newResult != nil && reflect.TypeOf(m.newResult()) == ty {
			return m.name
		}
	}
	panic(fmt.Sprintf("%v is in no method table row", ty))
}

// TestWireGolden pins the bytes of every layout: testdata/wire.golden
// holds each sample's body and the whole frame (length header included)
// of the request and of the ok response carrying it, one hex line each.
// There is no update flag — a moved byte is a wire change, which bumps
// ProtoVersion.
func TestWireGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, msg := range sampleMessages() {
		req, err := appendRequest(newFrame(), 99, methodOf(msg), msg)
		if err != nil {
			t.Fatal(err)
		}
		var reqFrame, respFrame bytes.Buffer
		if err := sendFrame(&reqFrame, req); err != nil {
			t.Fatal(err)
		}
		if err := sendFrame(&respFrame, appendResponse(newFrame(), 99, "", msg)); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%02d %T", i, msg)
		lines = append(lines,
			name+" body "+hex.EncodeToString(encodeBody(nil, msg)),
			name+" request "+hex.EncodeToString(reqFrame.Bytes()),
			name+" response "+hex.EncodeToString(respFrame.Bytes()))
	}
	if got := strings.Join(lines, "\n") + "\n"; got != string(want) {
		t.Errorf("wire encodings moved:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if ProtoVersion != 9 {
		t.Errorf("ProtoVersion %d: the golden was written at 9", ProtoVersion)
	}
}

// TestEncodeIsReadOnly: an agent may encode one memoized answer on
// several connections at once, so a layout only reads the value it
// encodes. Under -race, a layout that writes a field while encoding
// fails here.
func TestEncodeIsReadOnly(t *testing.T) {
	for i, msg := range sampleMessages() {
		want := encodeBody(nil, msg)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := encodeBody(nil, msg); !bytes.Equal(got, want) {
					t.Errorf("sample %d (%T): concurrent encoding differs", i, msg)
				}
			}()
		}
		wg.Wait()
	}
}

// TestTruncationErrors: every strict prefix of a valid body must fail
// to decode — the codec reads a fixed field sequence, so cutting the
// tail starves some read, and Finish catches anything shorter still.
// The one designed exception: feature-gated tails. A message whose
// optional fields ride in an absent-when-unused tail decodes cleanly
// when cut exactly where that tail starts, because that is the valid
// frame of a sender not using the feature — and then re-encoding the
// decoded value must reproduce the truncated bytes verbatim (the prefix
// is canonical for what it decoded to). Clean decodes at any other cut
// are bugs, as are degenerate tails (explicit empty/false tails the
// encoders never emit — the trailing-garbage probe below would accept
// them otherwise).
func TestTruncationErrors(t *testing.T) {
	for i, msg := range sampleMessages() {
		body := encodeBody(nil, msg)
		for k := 0; k < len(body); k++ {
			got := freshLike(msg)
			err := decodeBody(body[:k], got)
			if err == nil {
				if re := encodeBody(nil, got); !reflect.DeepEqual(re, append([]byte(nil), body[:k]...)) {
					t.Errorf("sample %d (%T): truncation to %d of %d bytes decoded cleanly into a non-canonical frame:\n cut: %x\n  re: %x",
						i, msg, k, len(body), body[:k], re)
				}
			}
		}
		// And trailing garbage is rejected too.
		if err := decodeBody(append(append([]byte(nil), body...), 0x00), freshLike(msg)); err == nil {
			t.Errorf("sample %d (%T): trailing byte accepted", i, msg)
		}
	}
}

// TestRequestEnvelope: every method round-trips through the request
// framing, and corrupted envelopes error.
func TestRequestEnvelope(t *testing.T) {
	for _, row := range methodTable {
		m := row.name
		payload, err := appendRequest(nil, 42, m, &ShadowCloseParams{ShadowID: 9})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		id, method, body, err := parseRequest(payload)
		if err != nil {
			t.Fatalf("%s: parse: %v", m, err)
		}
		if id != 42 || method != m {
			t.Errorf("%s: round-tripped as id=%d method=%q", m, id, method)
		}
		var p ShadowCloseParams
		if err := decodeBody(body, &p); err != nil || p.ShadowID != 9 {
			t.Errorf("%s: body decode: %+v, %v", m, p, err)
		}
	}
	if _, err := appendRequest(nil, 1, "no-such-method", nil); err == nil {
		t.Error("unknown method encoded")
	}
	if _, _, _, err := parseRequest([]byte{frameRequest, 0x01, 0x7f}); err == nil {
		t.Error("unknown method code parsed")
	}
	if _, _, _, err := parseRequest([]byte{frameResponse, 0x01, 0x01}); err == nil {
		t.Error("response kind accepted as request")
	}
	if _, _, _, err := parseRequest(nil); err == nil {
		t.Error("empty payload accepted as request")
	}
}

// TestResponseEnvelope: ok and error responses round-trip; bad status
// octets and truncated error strings are rejected.
func TestResponseEnvelope(t *testing.T) {
	ok := appendResponse(nil, 7, "", &ShadowOpenResult{ShadowID: 3})
	id, errMsg, body, err := parseResponse(ok)
	if err != nil || id != 7 || errMsg != "" {
		t.Fatalf("ok response: id=%d err=%q parse=%v", id, errMsg, err)
	}
	var r ShadowOpenResult
	if err := decodeBody(body, &r); err != nil || r.ShadowID != 3 {
		t.Errorf("ok body: %+v, %v", r, err)
	}

	bad := appendResponse(nil, 8, "dist: no shadow 3", nil)
	id, errMsg, body, err = parseResponse(bad)
	if err != nil || id != 8 || errMsg != "dist: no shadow 3" || body != nil {
		t.Fatalf("error response: id=%d err=%q body=%v parse=%v", id, errMsg, body, err)
	}

	if _, _, _, err := parseResponse([]byte{frameResponse, 0x08, 0x02}); err == nil {
		t.Error("bad status octet accepted")
	}
	if _, _, _, err := parseResponse(bad[:len(bad)-2]); err == nil {
		t.Error("truncated error string accepted")
	}
	if _, _, _, err := parseResponse([]byte{frameRequest, 0x08, 0x00}); err == nil {
		t.Error("request kind accepted as response")
	}
}

// TestDecodeRejections: out-of-range values from the peer are errors in
// the malformed-frame class, each pinned by corrupting one octet of a
// valid encoding — a prefix (a query's, a delivery's watch) longer than
// /32 or with host bits set, a leak range's LenHi over 32, a strategy
// past BFS, and the eleventh method code, retired with
// inject_witness_batch.
func TestDecodeRejections(t *testing.T) {
	query := encodeBody(nil, &QueryOracleParams{ShadowID: 7, Prefix: netaddr.MustParsePrefix("10.200.0.0/24")})
	inject := encodeBody(nil, &InjectBatchParams{ShadowID: 7, Key: 6, Deliveries: []BatchDelivery{
		{From: "p", Msg: []byte{1}, Watch: netaddr.MustParsePrefix("10.200.0.0/24")}}})
	finding := core.Finding{Kind: "k", Peer: "p", Prefix: netaddr.MustParsePrefix("10.0.0.0/8"),
		LeakRange: core.RangeDesc{LenLo: 8, LenHi: 32}}
	explore := encodeBody(nil, &ExploreResult{Findings: []core.Finding{finding}})
	knobs := encodeBody(nil, &ExploreParams{Peer: "p", Scenario: "s", EngineKnobs: EngineKnobs{Strategy: concolic.BFS}})

	// flip returns body with octet at, which must hold from, set to to.
	flip := func(body []byte, at int, from, to byte) []byte {
		t.Helper()
		if body[at] != from {
			t.Fatalf("octet %d is %#x, want %#x — the sample's layout moved", at, body[at], from)
		}
		out := append([]byte(nil), body...)
		out[at] = to
		return out
	}
	// An ExploreResult with empty strings and zero counters spends one
	// octet on each of its 13 leading fields and one on the finding count;
	// the finding opens with two 1-octet strings.
	const findingAt = 14 + 2 + 2
	cases := []struct {
		name string
		body []byte
		into message
	}{
		{"prefix-bits-33", flip(query, len(query)-1, 24, 33), &QueryOracleParams{}},
		{"prefix-host-bits", flip(query, len(query)-2, 0, 1), &QueryOracleParams{}},
		{"watch-bits-33", flip(inject, len(inject)-2, 24, 33), &InjectBatchParams{}},
		{"watch-host-bits", flip(inject, len(inject)-3, 0, 1), &InjectBatchParams{}},
		{"finding-prefix-bits-33", flip(explore, findingAt+4, 8, 33), &ExploreResult{}},
		{"leak-range-lenhi-33", flip(explore, findingAt+5+8+1, 32, 33), &ExploreResult{}},
		{"strategy-3", flip(knobs, 2+2+1+2, uint8(concolic.BFS), 3), &ExploreParams{}},
	}
	for _, tc := range cases {
		if err := decodeBody(tc.body, tc.into); !errors.Is(err, errFrame) {
			t.Errorf("%s: decode returned %v, want a malformed-frame error", tc.name, err)
		}
	}
	if _, _, _, err := parseRequest([]byte{frameRequest, 0x01, uint8(len(methodTable) + 1)}); !errors.Is(err, errFrame) {
		t.Errorf("retired method code %d parsed: %v", len(methodTable)+1, err)
	}
	if len(methodTable) != 10 {
		t.Errorf("method table has %d rows, want 10", len(methodTable))
	}
}

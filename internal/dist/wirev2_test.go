package dist

import (
	"reflect"
	"testing"

	"dice/internal/core"
	"dice/internal/netaddr"
)

// sampleMessages returns one fully-populated instance of every wire
// message type. Round-trip, truncation and fuzz-seed tests iterate
// these, so new fields belong in the samples the moment they grow a
// codec.
func sampleMessages() []v2Message {
	return []v2Message{
		&HelloParams{Version: ProtoVersion, Session: 0xfeedbeefcafe,
			Properties: []string{
				`property "leak" { never carries community boundary at node behind boundary }`,
				`property "converge" { eventually converges within 64 steps }`,
			}},
		&HelloResult{Node: "as65002", Topology: "line-3-dense-256", AS: 65002, Prefixes: 771, Version: ProtoVersion},
		&CheckpointResult{State: []byte{0xca, 0xfe, 0x00, 0x01}, Pages: 12, UniquePages: 3},
		&ExploreParams{
			Peer: "as65001", Scenario: "route-leak", Explicit: true,
			EngineKnobs: EngineKnobs{MaxRuns: 200, MaxDepth: 64, Workers: 4, SolverNodes: 2,
				Strategy: "generational", TimeBudgetNS: 5_000_000_000},
			ReuseState: true, Round: 3,
		},
		&ExploreResult{
			Skipped: "", Scenario: "route-leak",
			Runs: 41, NewPaths: 7, BranchesSeen: 120, SolverCalls: 33, SolverSat: 21,
			SolverUnsat: 12, CacheHits: 9, SkippedPaths: 2, SkippedNegations: 5,
			ElapsedNS: 1_234_567, CapturedMessages: 3, WitnessesRejected: 1,
			Findings: []WireFinding{
				{
					Kind: "route-leak", Peer: "as65001", Prefix: "10.200.0.0/24",
					LeakRange: core.RangeDesc{
						AddrLo: netaddr.AddrFrom4(10, 0, 0, 0), AddrHi: netaddr.AddrFrom4(10, 255, 255, 255),
						LenLo: 24, LenHi: 32,
					},
					OriginAS: 65001, VictimAS: 65003, VictimPrefix: "10.18.0.0/16",
					Seq: 17, Validated: true, SpreadTo: []string{"as65003", "as65004"},
					Input:    map[string]uint64{"addr": 0x0ac80000, "community": 0xFFFFFF01, "len": 24},
					Rendered: "route-leak 10.200.0.0/24 via as65001",
				},
				{Kind: "blackhole", Peer: "as65003", Prefix: "10.17.0.0/16"},
			},
			Witnesses: []WireWitness{{Finding: 0, Msg: []byte{0x02, 0x00, 0x17}}, {Finding: 1, Msg: []byte{0x01}}},
		},
		&ExploreResult{Skipped: "no observed seed"},
		&ReplayParams{Node: "as65001", Peer: "stub", Trace: []byte("MRTLfakebytes"), Key: 11},
		&ReplayResult{Delivered: 250, Prefixes: 771},
		&ShadowOpenResult{ShadowID: 7},
		&InjectParams{ShadowID: 7, From: "as65001", Msg: []byte{0xff, 0x00, 0x10}, Key: 5},
		&InjectResult{Emitted: []WireEmission{
			{To: "as65003", Msg: []byte{0xaa}},
			{To: "as65001", Msg: nil},
		}},
		&InjectBatchParams{ShadowID: 7, Deliveries: []BatchDelivery{
			{From: "as65001", Msg: []byte{0x01, 0x02}},
			{From: "as65003", Msg: []byte{0x03}},
		}, Key: 6},
		&InjectBatchResult{Results: []InjectResult{
			{Emitted: []WireEmission{{To: "as65003", Msg: []byte{0xbb, 0xcc}}}},
			{},
		}},
		&ShadowCloseParams{ShadowID: 7},
		&QueryOracleParams{ShadowID: 7, Prefix: "10.200.0.0/24", WantProps: true},
		&QueryOracleResult{HasBest: true, BestFP: "r42", HasCovering: true, CoveringLocal: false, CoveringNextPeer: "as65002",
			PropMatch: []bool{true, false, true}},
		&ReplicaExploreParams{
			Node: "as65002", Config: []string{"router bgp 65002", " neighbor up"},
			State: []byte{0x05, 0x00, 0xde}, Peer: "as65001", Scenario: "route-leak",
			Explicit: true,
			EngineKnobs: EngineKnobs{MaxRuns: 120, MaxDepth: 48, Workers: 2, SolverNodes: 1,
				Strategy: "generational", TimeBudgetNS: 2_000_000_000},
			Boundary: 0xFFFF_FF01, Seed: []byte{0x02, 0x00, 0x17}, WarmState: []byte{0x7a}, Round: 4, Shard: "as65002/as65001#0",
			PageSize: 4096,
			PageHash: []string{"6cd5", "a001", "6cd5"},
			PageData: [][]byte{{0xca, 0xfe}, {0x00}},
		},
		&ReplicaExploreResult{
			ExploreResult: ExploreResult{Scenario: "route-leak", Runs: 17, ElapsedNS: 99},
			WarmState:     []byte{0x7b, 0x7c},
			MissingPages:  []string{"a001", "6cd5"},
		},
	}
}

// freshLike returns a zero-valued instance of the same concrete message
// type, for decoding into.
func freshLike(msg v2Message) v2Message {
	return reflect.New(reflect.TypeOf(msg).Elem()).Interface().(v2Message)
}

// TestV2RoundTripProperty: encode→decode returns every message
// unchanged, and the encoding is canonical (re-encoding the decoded
// value yields identical bytes — map fields are written in sorted key
// order, so this holds even for ExploreResult's Input maps).
func TestV2RoundTripProperty(t *testing.T) {
	for i, msg := range sampleMessages() {
		body := msg.appendV2(nil)
		got := freshLike(msg)
		if err := decodeBodyV2(body, got); err != nil {
			t.Errorf("sample %d (%T): decode of own encoding failed: %v", i, msg, err)
			continue
		}
		if again := got.appendV2(nil); !reflect.DeepEqual(again, body) {
			t.Errorf("sample %d (%T): re-encoding is not canonical:\n first: %x\n again: %x", i, msg, body, again)
		}
		// Value equality up to nil-vs-empty (the codec returns nil for
		// zero-length collections).
		reBody := got.appendV2(nil)
		reGot := freshLike(msg)
		if err := decodeBodyV2(reBody, reGot); err != nil {
			t.Errorf("sample %d (%T): second decode failed: %v", i, msg, err)
			continue
		}
		if !reflect.DeepEqual(got, reGot) {
			t.Errorf("sample %d (%T): decode not stable:\n first: %+v\n again: %+v", i, msg, got, reGot)
		}
	}
}

// TestV2TruncationErrors: every strict prefix of a valid body must fail
// to decode — the codec reads a fixed field sequence, so cutting the
// tail starves some read, and finish() catches anything shorter still.
// The one designed exception: feature-gated tails. A message whose
// optional fields ride in an absent-when-unused tail decodes cleanly
// when cut exactly where that tail starts, because that is the valid
// frame of a sender not using the feature — and then re-encoding the
// decoded value must reproduce the truncated bytes verbatim (the prefix
// is canonical for what it decoded to). Clean decodes at any other cut
// are bugs, as are degenerate tails (explicit empty/false tails the
// encoders never emit — the trailing-garbage probe below would accept
// them otherwise).
func TestV2TruncationErrors(t *testing.T) {
	for i, msg := range sampleMessages() {
		body := msg.appendV2(nil)
		for k := 0; k < len(body); k++ {
			got := freshLike(msg)
			err := decodeBodyV2(body[:k], got)
			if err == nil {
				if re := got.appendV2(nil); !reflect.DeepEqual(re, append([]byte(nil), body[:k]...)) {
					t.Errorf("sample %d (%T): truncation to %d of %d bytes decoded cleanly into a non-canonical frame:\n cut: %x\n  re: %x",
						i, msg, k, len(body), body[:k], re)
				}
			}
		}
		// And trailing garbage is rejected too.
		if err := decodeBodyV2(append(append([]byte(nil), body...), 0x00), freshLike(msg)); err == nil {
			t.Errorf("sample %d (%T): trailing byte accepted", i, msg)
		}
	}
}

// TestV2RequestEnvelope: every method round-trips through the request
// framing, and corrupted envelopes error.
func TestV2RequestEnvelope(t *testing.T) {
	for _, m := range methodTable {
		payload, err := appendRequestV2(nil, 42, m, &ShadowCloseParams{ShadowID: 9})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		id, method, body, err := parseRequestV2(payload)
		if err != nil {
			t.Fatalf("%s: parse: %v", m, err)
		}
		if id != 42 || method != m {
			t.Errorf("%s: round-tripped as id=%d method=%q", m, id, method)
		}
		var p ShadowCloseParams
		if err := decodeBodyV2(body, &p); err != nil || p.ShadowID != 9 {
			t.Errorf("%s: body decode: %+v, %v", m, p, err)
		}
	}
	if _, err := appendRequestV2(nil, 1, "no-such-method", nil); err == nil {
		t.Error("unknown method encoded")
	}
	if _, _, _, err := parseRequestV2([]byte{frameRequestV2, 0x01, 0x7f}); err == nil {
		t.Error("unknown method code parsed")
	}
	if _, _, _, err := parseRequestV2([]byte{frameResponseV2, 0x01, 0x01}); err == nil {
		t.Error("response kind accepted as request")
	}
	if _, _, _, err := parseRequestV2(nil); err == nil {
		t.Error("empty payload accepted as request")
	}
}

// TestV2ResponseEnvelope: ok and error responses round-trip; bad status
// octets and truncated error strings are rejected.
func TestV2ResponseEnvelope(t *testing.T) {
	ok := appendResponseV2(nil, 7, "", &ShadowOpenResult{ShadowID: 3})
	id, errMsg, body, err := parseResponseV2(ok)
	if err != nil || id != 7 || errMsg != "" {
		t.Fatalf("ok response: id=%d err=%q parse=%v", id, errMsg, err)
	}
	var r ShadowOpenResult
	if err := decodeBodyV2(body, &r); err != nil || r.ShadowID != 3 {
		t.Errorf("ok body: %+v, %v", r, err)
	}

	bad := appendResponseV2(nil, 8, "dist: no shadow 3", nil)
	id, errMsg, body, err = parseResponseV2(bad)
	if err != nil || id != 8 || errMsg != "dist: no shadow 3" || body != nil {
		t.Fatalf("error response: id=%d err=%q body=%v parse=%v", id, errMsg, body, err)
	}

	if _, _, _, err := parseResponseV2([]byte{frameResponseV2, 0x08, 0x02}); err == nil {
		t.Error("bad status octet accepted")
	}
	if _, _, _, err := parseResponseV2(bad[:len(bad)-2]); err == nil {
		t.Error("truncated error string accepted")
	}
	if _, _, _, err := parseResponseV2([]byte{frameRequestV2, 0x08, 0x00}); err == nil {
		t.Error("request kind accepted as response")
	}
}

package dist

import (
	"reflect"
	"testing"
)

// fuzzFrameSeeds covers the envelope regions and every message family:
// valid request and response payloads, truncations at the structural
// boundaries, corrupted kind/method/status octets, and a length field
// far beyond the payload.
func fuzzFrameSeeds(t interface{ Helper() }) [][]byte {
	t.Helper()
	seeds := [][]byte{{}, {frameRequest}, {frameResponse}, {0x7b}}
	for _, msg := range sampleMessages() {
		body := encodeBody(nil, msg)
		req, err := appendRequest(nil, 99, MethodExplore, nil)
		if err != nil {
			panic(err)
		}
		req = append(req, body...)
		// The body under the code of the method it belongs to as well, so
		// request mutations reach every params decoder, not explore's only.
		own, err := appendRequest(nil, 99, methodOf(msg), nil)
		if err != nil {
			panic(err)
		}
		own = append(own, body...)
		resp := appendResponse(nil, 99, "", msg)
		seeds = append(seeds, req, resp,
			req[:len(req)/2], resp[:len(resp)/2], own, own[:len(own)/2])
	}
	full, err := appendRequest(nil, 7, MethodInjectWitness,
		&InjectBatchParams{ShadowID: 1, Deliveries: []BatchDelivery{{From: "as65001", Msg: []byte{1, 2, 3}}}})
	if err != nil {
		panic(err)
	}
	badMethod := append([]byte(nil), full...)
	badMethod[2] = 0x7f // method code nothing maps to
	badKind := append([]byte(nil), full...)
	badKind[0] = 0xd9
	hugeCount := appendResponse(nil, 3, "", nil)
	hugeCount = append(hugeCount, 0xff, 0xff, 0xff, 0xff, 0x0f) // count with no elements behind it
	errResp := appendResponse(nil, 4, "dist: boom", nil)
	badStatus := append([]byte(nil), errResp...)
	badStatus[2] = 0x02
	// The hello exchange as it opens every connection.
	helloReq, err := appendRequest(nil, 1, MethodHello, &HelloParams{Version: ProtoVersion, Session: 0xfeedbeefcafe})
	if err != nil {
		panic(err)
	}
	helloResp := appendResponse(nil, 1, "", &HelloResult{Node: "as65002", Topology: "line-3", AS: 65002, Prefixes: 3, Version: ProtoVersion})
	return append(seeds, full, badMethod, badKind, hugeCount, errResp, badStatus, helloReq, helloResp)
}

// FuzzDecodeFrame: whatever payload bytes arrive, the envelope
// parsers and every typed body decode must either succeed or return an
// error — never panic, never over-allocate on a lying count. Anything
// that parses must re-encode and re-parse to the same value.
func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range fuzzFrameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if id, method, body, err := parseRequest(data); err == nil {
			params := paramsFor(method)
			if derr := decodeBody(body, params); derr == nil {
				re, err := appendRequest(nil, id, method, params)
				if err != nil {
					t.Fatalf("re-encode of parsed %s request failed: %v", method, err)
				}
				_, m2, body2, err := parseRequest(re)
				if err != nil || m2 != method {
					t.Fatalf("re-parse of %s request: method %q err %v", method, m2, err)
				}
				again := paramsFor(method)
				if err := decodeBody(body2, again); err != nil {
					t.Fatalf("re-decode of %s params: %v", method, err)
				}
				if !reflect.DeepEqual(params, again) {
					t.Fatalf("%s params not canonical:\n first: %+v\n again: %+v", method, params, again)
				}
			}
		}
		if id, errMsg, body, err := parseResponse(data); err == nil && errMsg == "" {
			for _, result := range resultTypes() {
				if derr := decodeBody(body, result); derr != nil {
					continue
				}
				re := appendResponse(nil, id, "", result)
				_, _, body2, err := parseResponse(re)
				if err != nil {
					t.Fatalf("re-parse of %T response: %v", result, err)
				}
				again := freshLike(result)
				if err := decodeBody(body2, again); err != nil {
					t.Fatalf("re-decode of %T result: %v", result, err)
				}
				if !reflect.DeepEqual(result, again) {
					t.Fatalf("%T result not canonical:\n first: %+v\n again: %+v", result, result, again)
				}
			}
		}
	})
}

// TestRejectsSeedCorpus pins the malformed seeds as plain unit cases:
// each must error on at least one envelope parse without panicking,
// even when the fuzzer is not run.
func TestRejectsSeedCorpus(t *testing.T) {
	for i, seed := range fuzzFrameSeeds(t) {
		_, _, _, reqErr := parseRequest(seed)
		_, _, _, respErr := parseResponse(seed)
		if reqErr == nil && respErr == nil {
			t.Errorf("seed %d parsed as both a request and a response", i)
		}
	}
}

package concolic

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// goldenStates are the states the TestStateWire* tests build, by name:
// empty, one cold exploration (with one and with four workers), and a
// decoded state after a warm round from another seed.
func goldenStates(t testing.TB) []struct {
	name string
	st   *ExploreState
} {
	t.Helper()
	explored := NewExploreState()
	exploreWith(Options{State: explored})
	wide := NewExploreState()
	exploreWith(Options{State: wide, Workers: 4})
	restored, err := DecodeExploreState(explored.EncodeWire())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(twoPredicateHandler, Options{State: restored})
	eng.Var("x", 32, 9)
	eng.Explore()
	return []struct {
		name string
		st   *ExploreState
	}{
		{"empty", NewExploreState()},
		{"explored", explored},
		{"explored-4-workers", wide},
		{"restored-then-warm", restored},
	}
}

// TestStateWireGolden pins the EXS1 bytes: testdata/state_wire.golden
// holds each golden state's encoding, one "name hex" line each. There is
// no update flag — a moved byte is a format change.
func TestStateWireGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/state_wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, g := range goldenStates(t) {
		lines = append(lines, g.name+" "+hex.EncodeToString(g.st.EncodeWire()))
	}
	if got := strings.Join(lines, "\n") + "\n"; got != string(want) {
		t.Errorf("EXS1 encodings moved:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// FuzzDecodeExploreState: whatever bytes a replica sends back, the
// decoder errors or yields a state — never panics, never over-allocates
// on a lying count — and a decoded state re-encodes to a fixpoint.
func FuzzDecodeExploreState(f *testing.F) {
	for _, g := range goldenStates(f) {
		enc := g.st.EncodeWire()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte("EXS1\xff\xff\xff\xff\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeExploreState(data)
		if err != nil {
			return
		}
		enc := st.EncodeWire()
		again, err := DecodeExploreState(enc)
		if err != nil {
			t.Fatalf("re-decode of a decoded state's encoding: %v", err)
		}
		if re := again.EncodeWire(); !bytes.Equal(re, enc) {
			t.Fatalf("encoding is not a fixpoint:\n first: %x\n again: %x", enc, re)
		}
		if got, want := again.Stats(), st.Stats(); got.Paths != want.Paths || got.Negations != want.Negations {
			t.Fatalf("re-decoded stats %+v, want %+v", got, want)
		}
	})
}

// TestStateWireRoundTrip: a round warmed by a decoded state must skip
// exactly the work a round warmed by the original in-process state
// skips — the replica contract: exploration memory survives the wire
// with no loss and no spurious suppression.
func TestStateWireRoundTrip(t *testing.T) {
	original := NewExploreState()
	cold := exploreWith(Options{State: original})
	if len(cold.Paths) != 4 {
		t.Fatalf("cold round found %d paths, want 4", len(cold.Paths))
	}

	restored, err := DecodeExploreState(original.EncodeWire())
	if err != nil {
		t.Fatal(err)
	}
	inproc := exploreWith(Options{State: original})
	wire := exploreWith(Options{State: restored})

	if wire.Runs != inproc.Runs {
		t.Errorf("wire-warmed round ran %d times, in-process %d", wire.Runs, inproc.Runs)
	}
	if len(wire.Paths) != 0 {
		t.Errorf("wire-warmed round re-reported %d paths", len(wire.Paths))
	}
	if wire.SkippedPaths != inproc.SkippedPaths {
		t.Errorf("wire-warmed round skipped %d paths, in-process %d", wire.SkippedPaths, inproc.SkippedPaths)
	}
	if wire.SkippedNegations != inproc.SkippedNegations {
		t.Errorf("wire-warmed round skipped %d negations, in-process %d",
			wire.SkippedNegations, inproc.SkippedNegations)
	}
	if wire.SkippedPaths == 0 || wire.SkippedNegations == 0 {
		t.Errorf("wire-warmed round skipped nothing (%d paths / %d negations) — state lost in transit",
			wire.SkippedPaths, wire.SkippedNegations)
	}
}

// TestStateWireCanonical: the encoding is schedule-independent — two
// states accumulating the same exploration (even with different worker
// counts) encode byte-identically, and encode∘decode is a fixpoint.
func TestStateWireCanonical(t *testing.T) {
	a, b := NewExploreState(), NewExploreState()
	exploreWith(Options{State: a})
	exploreWith(Options{State: b, Workers: 4})
	ea, eb := a.EncodeWire(), b.EncodeWire()
	if !bytes.Equal(ea, eb) {
		t.Fatalf("same exploration encoded differently: %d vs %d bytes", len(ea), len(eb))
	}

	restored, err := DecodeExploreState(ea)
	if err != nil {
		t.Fatal(err)
	}
	if again := restored.EncodeWire(); !bytes.Equal(ea, again) {
		t.Fatalf("decode->encode not a fixpoint: %d vs %d bytes", len(ea), len(again))
	}
	st := restored.Stats()
	if st.Paths != a.Stats().Paths || st.Negations != a.Stats().Negations {
		t.Fatalf("restored stats %+v, want %d paths / %d negations",
			st, a.Stats().Paths, a.Stats().Negations)
	}
}

// TestStateWireGrowsThroughRestore: an imported state keeps accumulating
// — new paths recorded after a round-trip coexist with imported records
// and the re-encoded state carries both.
func TestStateWireGrowsThroughRestore(t *testing.T) {
	seedState := NewExploreState()
	run := func(st *ExploreState, seed uint64) *Report {
		eng := NewEngine(twoPredicateHandler, Options{State: st})
		eng.Var("x", 32, seed)
		return eng.Explore()
	}
	run(seedState, 4)
	restored, err := DecodeExploreState(seedState.EncodeWire())
	if err != nil {
		t.Fatal(err)
	}
	// All four paths are already known; a warm round from any seed skips
	// them, and the state after re-encoding still holds all four.
	if rep := run(restored, 9); len(rep.Paths) != 0 {
		t.Fatalf("warm round on imported state reported %d paths", len(rep.Paths))
	}
	second, err := DecodeExploreState(restored.EncodeWire())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := second.Stats().Paths, seedState.Stats().Paths; got != want {
		t.Fatalf("twice-shipped state holds %d paths, want %d", got, want)
	}
}

// TestStateWireDecodeRejectsMalformed: truncation at any offset and
// trailing garbage must error, never yield a partial state.
func TestStateWireDecodeRejectsMalformed(t *testing.T) {
	st := NewExploreState()
	exploreWith(Options{State: st})
	enc := st.EncodeWire()

	if _, err := DecodeExploreState(nil); err == nil {
		t.Error("decoding nil succeeded")
	}
	if _, err := DecodeExploreState([]byte("XXXX")); err == nil {
		t.Error("decoding bad magic succeeded")
	}
	for _, cut := range []int{5, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeExploreState(enc[:cut]); err == nil {
			t.Errorf("decoding truncation at %d succeeded", cut)
		}
	}
	if _, err := DecodeExploreState(append(append([]byte{}, enc...), 0x00)); err == nil {
		t.Error("decoding trailing garbage succeeded")
	}
}

package core

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"dice/internal/bgp"
	"dice/internal/checkpoint"
	"dice/internal/concolic"
)

// These tests pin down the serialization contracts the distributed wire
// protocol (internal/dist) depends on: a node's state must round-trip
// bytes-exactly through the page-deduplicating checkpoint store, the
// restored router must explore like the original, and warm cross-round
// ExploreState must compose with snapshot restoration — the agent keeps
// state server-side across Explore calls while every round runs over a
// freshly restored clone.

// exploreRestored explores provider←customer over a shipped checkpoint
// the way a replica does (dist.Replica.explore): PrepareRestored, then
// the prepared engine's exploration and the scenario's fold.
func exploreRestored(f *Fig2, state []byte, seed *bgp.Update, engOpts concolic.Options) (*Result, error) {
	tg := ResolvedTarget{Node: NodeProvider, Peer: NodeCustomer, Scenario: ScenarioUpdate, Explicit: true}
	tp, err := PrepareRestored(NodeProvider, f.Provider.Config(), state, tg, seed, engOpts)
	if err != nil {
		return nil, err
	}
	return tp.Analyze(nil, engOpts, 0, tp.Engine.Explore()), nil
}

// TestCheckpointChunksRoundTrip: EncodeStateChunks through a checkpoint
// store reassembles to the exact concatenated chunks, restores to an
// equivalent router, and re-encodes identically (a stable fixpoint —
// what lets snapshots be shipped, stored and compared by content).
func TestCheckpointChunksRoundTrip(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadTable(smallTrace(300, 0)); err != nil {
		t.Fatal(err)
	}

	store := checkpoint.NewStore(0)
	snap := store.TakeChunks("provider", f.Provider.EncodeStateChunks())
	state := snap.Bytes()
	if want := bytes.Join(f.Provider.EncodeStateChunks(), nil); string(state) != string(want) {
		t.Fatalf("chunked store round-trip differs: %d vs %d bytes", len(state), len(want))
	}

	restored, err := exploreRestored(f, state, f.Provider.LastObserved(NodeCustomer), concolic.Options{MaxRuns: 50})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Report.Runs == 0 {
		t.Fatal("restored snapshot explored nothing")
	}

	// Unchanged state re-ingested must share every page (the fork-COW
	// property the agent's Checkpoint RPC reports as UniquePages 0).
	before := store.Stats()
	snap2 := store.TakeChunks("provider-again", f.Provider.EncodeStateChunks())
	after := store.Stats()
	if fresh := (after.Ingested - before.Ingested) - (after.SharedHits - before.SharedHits); fresh != 0 {
		t.Errorf("unchanged state re-checkpointed with %d unshared pages", fresh)
	}
	if got := snap2.SharedPages(snap); got != snap.Pages() {
		t.Errorf("snapshots share %d of %d pages", got, snap.Pages())
	}
}

// TestExploreSnapshotWarmState: repeated rounds over restored snapshots
// with a shared ExploreState are incremental — the second restoration
// of the same state re-discovers nothing and skips the known negation
// queries. This is exactly the agent's Explore lifecycle under
// ReuseState: state lives across rounds, every round restores fresh.
func TestExploreSnapshotWarmState(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadTable(smallTrace(300, 0)); err != nil {
		t.Fatal(err)
	}
	seed := f.Provider.LastObserved(NodeCustomer)
	state := bytes.Join(f.Provider.EncodeStateChunks(), nil)

	warm := concolic.NewExploreState()
	opts := func() concolic.Options {
		return concolic.Options{MaxRuns: 2000, State: warm}
	}

	cold, err := exploreRestored(f, state, seed, opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Report.Paths) == 0 {
		t.Fatal("cold snapshot round explored no paths")
	}

	rewarmed, err := exploreRestored(f, state, seed, opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rewarmed.Report.Paths) != 0 {
		t.Errorf("warm round over the same snapshot found %d new paths, want 0", len(rewarmed.Report.Paths))
	}
	if rewarmed.Report.SkippedNegations == 0 {
		t.Error("warm round skipped no negations")
	}
	st := warm.Stats()
	if st.Rounds != 2 || st.Paths == 0 {
		t.Errorf("warm state stats after two rounds: %+v", st)
	}
}

// TestExploreSnapshotRejectsCorruptState: every truncation/corruption
// class in the checkpoint format surfaces as an error, not a panic or a
// silently partial router.
func TestExploreSnapshotRejectsCorruptState(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadTable(smallTrace(50, 0)); err != nil {
		t.Fatal(err)
	}
	seed := f.Provider.LastObserved(NodeCustomer)
	state := bytes.Join(f.Provider.EncodeStateChunks(), nil)

	cases := map[string][]byte{
		"empty":        nil,
		"bad magic":    append([]byte("NOPE"), state[4:]...),
		"truncated":    state[:len(state)/2],
		"extra prefix": append(append([]byte{}, state...), 0xde, 0xad),
	}
	for name, corrupt := range cases {
		if _, err := exploreRestored(f, corrupt, seed, concolic.Options{MaxRuns: 10}); err == nil {
			t.Errorf("%s state restored without error", name)
		}
	}
}

// TestTopologyParseErrorPaths: the validation classes TestParseTopology
// doesn't reach — empty node names, empty configs, dangling explore
// targets, out-of-range boundary communities and link latencies,
// unreadable files and config-source errors surfacing from Build.
func TestTopologyParseErrorPaths(t *testing.T) {
	bad := map[string]string{
		"empty node name": `{"name":"x","nodes":[{"name":"","config":["x"]},{"name":"b","config":["x"]}],"edges":[{"a":"","b":"b"}]}`,
		"empty config":    `{"name":"x","nodes":[{"name":"a","config":[]},{"name":"b","config":["x"]}],"edges":[{"a":"a","b":"b"}]}`,
		"dangling explore": `{"name":"x","nodes":[{"name":"a","config":["x"]},{"name":"b","config":["x"]}],` +
			`"edges":[{"a":"a","b":"b"}],"explore":[{"node":"a","peer":"zzz"}]}`,
		"oversized community AS": `{"name":"x","no_export_community":"70000:1",` +
			`"nodes":[{"name":"a","config":["x"]},{"name":"b","config":["x"]}],"edges":[{"a":"a","b":"b"}]}`,
		"non-numeric community": `{"name":"x","no_export_community":"a:b",` +
			`"nodes":[{"name":"a","config":["x"]},{"name":"b","config":["x"]}],"edges":[{"a":"a","b":"b"}]}`,
		"not json": `{"name":`,
	}
	for name, src := range bad {
		if _, err := ParseTopology([]byte(src)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	// A latency the loop cannot schedule: negative, or past what a
	// time.Duration holds. The error names the edge.
	for _, ms := range []string{"-2", "9223372036855"} {
		src := `{"name":"x","nodes":[{"name":"a","config":["x"]},{"name":"b","config":["x"]}],"edges":[{"a":"a","b":"b","latency_ms":` + ms + `}]}`
		if _, err := ParseTopology([]byte(src)); err == nil || !strings.Contains(err.Error(), "edge a-b") {
			t.Errorf("latency_ms %s: err = %v, want one naming edge a-b", ms, err)
		}
	}

	if _, err := LoadTopology("testdata/definitely-does-not-exist.json"); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want not-exist", err)
	}

	// Valid document, broken config source: the error must surface from
	// Build with the node named.
	topo, err := ParseTopology([]byte(`{
	  "name": "badcfg",
	  "nodes": [
	    {"name": "a", "config": ["this is not a config;"]},
	    {"name": "b", "config": ["router id 10.0.0.2;", "local as 2;", "peer a { remote 10.0.0.1 as 1; }"]}
	  ],
	  "edges": [{"a": "a", "b": "b"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Build(); err == nil || !strings.Contains(err.Error(), `node a`) {
		t.Errorf("Build error = %v, want config error naming node a", err)
	}
}

package dist

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dice/internal/checkpoint"
	"dice/internal/core"
	"dice/internal/netaddr"
	"dice/internal/telemetry"
	"dice/internal/trace"
)

// TestReplicaShipsOnlyChangedPages is the paging acceptance for a node
// that is actually live: a provider holding a full table is shipped to a
// replica, one more prefix arrives over its live upstream session, and
// the shard is shipped again on the same connection. The second request
// must carry the manifest plus the one region the announcement touched —
// a small fraction of the state — because page boundaries follow the
// RIB's stable regions and an insertion shifts nothing outside its own.
// (Under a flat re-split of the serialized bytes every page after the
// insertion point changes, and the second request is as big as the
// first.) Both shipments must explore to the findings the node's own
// agent reports for the same target.
func TestReplicaShipsOnlyChangedPages(t *testing.T) {
	const routes = 20000
	topo := leakTopo3()
	ag, err := NewAgent(topo, "provider")
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.DefaultGenConfig()
	gen.TableSize, gen.UpdateCount = routes, 0
	if _, err := ag.fabric.ReplayTrace("provider", "upstream", trace.Generate(gen)); err != nil {
		t.Fatal(err)
	}
	if n := ag.self.RIB().Prefixes(); n < routes {
		t.Fatalf("provider holds %d routes, want at least %d", n, routes)
	}
	boundary, err := topo.BoundaryCommunity()
	if err != nil {
		t.Fatal(err)
	}
	aconn, err := (Loopback{Agent: ag}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	acl := NewClient(aconn)
	defer acl.Close()
	var written int64
	rcl := replicaClient(t, NewReplica(), 33, &written)

	// ship runs one round's worth of the coordinator's replica path by
	// hand — checkpoint and seed from the agent, the checkpoint paged
	// once, the shard through the pool's exploreCall — and, beside it,
	// the agent's own explore of the same target.
	pool := &ReplicaPool{}
	acked := make(map[checkpoint.Key]struct{})
	ship := func(round uint64) (request int64, state int) {
		t.Helper()
		var ck CheckpointResult
		if err := acl.Call(MethodCheckpoint, nil, &ck); err != nil {
			t.Fatal(err)
		}
		var sr SeedResult
		if err := acl.Call(MethodSeed, &SeedParams{Peer: "customer", Scenario: core.ScenarioRouteLeak}, &sr); err != nil {
			t.Fatal(err)
		}
		snap := newCheckpointCache().store.TakeChunks("provider", ck.Chunks)
		params := &ReplicaExploreParams{
			Node: "provider", Config: topo.Nodes[1].Config,
			Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true,
			EngineKnobs: EngineKnobs{MaxRuns: 1000}, Boundary: boundary, Seed: sr.Msg,
			Round: round, Shard: core.WarmKey("provider", core.ScenarioRouteLeak, "customer"),
		}
		atomic.StoreInt64(&written, 0)
		var out ReplicaExploreResult
		if err := pool.exploreCall(rcl, params, snap, acked, &out); err != nil {
			t.Fatal(err)
		}
		request = atomic.LoadInt64(&written)

		var local ExploreResult
		if err := acl.Call(MethodExplore, &ExploreParams{
			Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true, EngineKnobs: params.EngineKnobs,
		}, &local); err != nil {
			t.Fatal(err)
		}
		if len(local.Findings) == 0 {
			t.Fatal("the agent's own explore found nothing — the comparison below is vacuous")
		}
		render := func(r *ExploreResult) string {
			return strings.Join(core.SnapshotTarget("provider", "customer", r.Scenario, r.Skipped, r.Findings), "\n")
		}
		if got, want := render(&out.ExploreResult), render(&local); got != want {
			t.Errorf("round %d: replica findings differ from the agent's:\n--- agent ---\n%s\n--- replica ---\n%s", round, want, got)
		}
		return request, snap.Size()
	}

	first, state := ship(1)
	if first < int64(state) {
		t.Fatalf("first shipment wrote %d bytes for a %d-byte state — pages were already acknowledged?", first, state)
	}

	// The new prefix sorts before nearly the whole table: the worst case
	// for a split by byte offset, and no different from any other for a
	// split by region.
	fresh := trace.Record{Kind: trace.KindAnnounce, Prefix: netaddr.MustParsePrefix("1.0.77.0/24"), Attrs: trace.Generate(gen)[0].Attrs}
	if ag.self.RIB().Best(fresh.Prefix) != nil {
		t.Fatalf("%s is already in the table", fresh.Prefix)
	}
	if _, err := ag.fabric.ReplayTrace("provider", "upstream", []trace.Record{fresh}); err != nil {
		t.Fatal(err)
	}
	if ag.self.RIB().Best(fresh.Prefix) == nil {
		t.Fatalf("live announcement of %s did not install", fresh.Prefix)
	}

	second, grown := ship(2)
	if grown <= state {
		t.Fatalf("state did not grow with the announcement: %d then %d bytes", state, grown)
	}
	t.Logf("state %d bytes: first request %d bytes, second %d (%.1f%%)", grown, first, second, 100*float64(second)/float64(grown))
	if second > int64(grown)*15/100 {
		t.Errorf("second shipment wrote %d bytes, more than 15%% of the %d-byte state: one announced prefix re-shipped unchanged pages", second, grown)
	}
}

// TestReplicaStoreBudget: the replica keeps one snapshot per shard and
// its store stays under checkpointBudget however many nodes' shards pass
// through — least-recently-used snapshots are released and reference
// counts evict their pages. A sender that still holds acks for a released
// shard is told MissingPages and heals with one full re-send on the same
// connection.
func TestReplicaStoreBudget(t *testing.T) {
	topo := leakTopo3()
	ck, seed := checkpointAndSeed(t, topo)
	boundary, err := topo.BoundaryCommunity()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica()
	cl := replicaClient(t, r, 34, new(int64))
	pool := &ReplicaPool{}
	acked := make(map[checkpoint.Key]struct{})
	real := &ReplicaExploreParams{
		Node: "provider", Config: topo.Nodes[1].Config,
		Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true,
		EngineKnobs: EngineKnobs{MaxRuns: 1000}, Boundary: boundary, Seed: seed,
		Round: 1, Shard: core.WarmKey("provider", core.ScenarioRouteLeak, "customer"),
	}
	var first ReplicaExploreResult
	if err := pool.exploreCall(cl, real, ck, acked, &first); err != nil {
		t.Fatal(err)
	}
	if len(first.Findings) == 0 {
		t.Fatal("reference shard found nothing")
	}

	// 64 shards of 64 distinct nodes, 640 KiB each with no two pages
	// alike: 40 MiB in all, past the 32 MiB budget. Their state is not a
	// router's, so each answers an application error — after the replica
	// has assembled and retained it, which is all this test needs.
	const shards, size = 64, 640 << 10
	src := checkpoint.NewStore(0)
	for i := 0; i < shards; i++ {
		state := make([]byte, size)
		for off := 0; off < size; off += 8 {
			binary.BigEndian.PutUint64(state[off:], uint64(i)<<32|uint64(off))
		}
		node := fmt.Sprintf("as%d", 65100+i)
		snap := src.Take(node, state)
		params := *real
		params.Node, params.Shard = node, core.WarmKey(node, core.ScenarioRouteLeak, "customer")
		var out ReplicaExploreResult
		if err := pool.exploreCall(cl, &params, snap, acked, &out); err == nil || isConnFault(err) {
			t.Fatalf("shard %d: err = %v, want the restore's application error", i, err)
		}
		snap.Release()
		r.reqMu.Lock()
		resident := r.store.Stats().ResidentBytes
		r.reqMu.Unlock()
		if resident > checkpointBudget {
			t.Fatalf("after shard %d the replica holds %d bytes, budget is %d", i, resident, checkpointBudget)
		}
	}
	r.reqMu.Lock()
	_, held := r.shards[real.Shard]
	_, missing := r.store.Assemble("probe", ck.Keys(), nil)
	r.reqMu.Unlock()
	if held || len(missing) == 0 {
		t.Fatalf("the oldest shard survived %d MiB of newer ones (held %v, %d pages missing)", shards*size>>20, held, len(missing))
	}

	// The sender's acks for the released shard are now stale.
	for _, k := range ck.Keys() {
		if _, ok := acked[k]; !ok {
			t.Fatal("the reference shard's keys were never acknowledged — the heal below is vacuous")
		}
	}
	real.Round = 2
	var healed ReplicaExploreResult
	if err := pool.exploreCall(cl, real, ck, acked, &healed); err != nil {
		t.Fatalf("released shard did not heal through MissingPages: %v", err)
	}
	if !reflect.DeepEqual(healed.Findings, first.Findings) {
		t.Errorf("healed shard found %d findings, first shipment %d", len(healed.Findings), len(first.Findings))
	}
}

// TestCheckpointPagedOncePerNodePerRound: a node with three targets is
// checkpointed, fetched and paged once per round — the three shards ship
// the one snapshot — and the round lands on the replica-less fleet's
// snapshot.
func TestCheckpointPagedOncePerNodePerRound(t *testing.T) {
	topo := leakTopo3()
	topo.Explore = []core.ExploreTarget{
		{Node: "provider", Peer: "customer", Scenario: core.ScenarioRouteLeak},
		{Node: "provider", Peer: "customer", Scenario: core.ScenarioUpdate},
		{Node: "provider", Peer: "customer", Scenario: core.ScenarioWithdraw},
	}
	ref, err := loopbackCoordinator(t, topo, fedOpts()).Round()
	if err != nil {
		t.Fatal(err)
	}
	tm := NewMetrics(telemetry.NewRegistry())
	pool := replicaPool(2)
	res, err := loopbackCoordinator(t, topo, fedOpts(), WithReplicas(pool), WithTelemetry(tm)).Round()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(res.Snapshot(), "\n"), strings.Join(ref.Snapshot(), "\n"); got != want {
		t.Errorf("three-target replica round diverged:\n--- no replicas ---\n%s\n--- replicas ---\n%s", want, got)
	}
	if st := pool.Stats(); st.Completed != 3 {
		t.Fatalf("pool completed %d shards, want the node's 3 targets", st.Completed)
	}
	if n := tm.rpcCalls.With(MethodCheckpoint).Value(); n != 1 {
		t.Errorf("%d checkpoint RPCs for one node's three targets, want 1", n)
	}

	// The same three targets against the round's cache: one fetch, and the
	// store hashed exactly one snapshot's pages.
	ag, err := NewAgent(topo, "provider")
	if err != nil {
		t.Fatal(err)
	}
	cc := newCheckpointCache()
	var fetches atomic.Int64
	snaps := make([]*checkpoint.Snapshot, 3)
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, err := cc.get("provider", func() ([][]byte, error) {
				fetches.Add(1)
				return ag.self.EncodeStateChunks(), nil
			})
			if err != nil {
				t.Error(err)
			}
			snaps[i] = snap
		}()
	}
	wg.Wait()
	if snaps[0] == nil || snaps[1] != snaps[0] || snaps[2] != snaps[0] {
		t.Fatalf("three targets of one node got different snapshots: %p %p %p", snaps[0], snaps[1], snaps[2])
	}
	if st := cc.store.Stats(); fetches.Load() != 1 || st.Ingested != uint64(snaps[0].Pages()) {
		t.Errorf("%d fetches, %d pages hashed for a %d-page snapshot — want one pass", fetches.Load(), st.Ingested, snaps[0].Pages())
	}
}

package dist

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"dice/internal/checkpoint"
	"dice/internal/core"
)

// atProps is a custom property set whose `at` clause the distributed
// backend can only answer remotely (query_oracle WantProps): the leaked
// route must still carry the boundary community where it was installed,
// and the forward path must never traverse the upstream AS. Both fire
// on leakTopo3's confirmed leak.
func atProps() []string {
	return []string{
		`property leak_still_tagged { kind "leak-tagged"; when community boundary; at community boundary; assert never installed; }`,
		`property avoid_upstream { kind "avoid-upstream"; when community boundary; assert never reachable via 65003; }`,
	}
}

// fatLeakTopo3 is leakTopo3 with the customer announcing 128 extra /24
// networks: the provider's RIB — and so its shipped checkpoint — grows
// to a few KiB, enough that page-versus-hash shipment differences
// dominate protocol framing. (The committed example topologies
// checkpoint in ~200 bytes, below one page hash's own cost.)
func fatLeakTopo3() *core.Topology {
	topo := leakTopo3()
	nets := make([]string, 0, 128)
	for i := 0; i < 128; i++ {
		nets = append(nets, fmt.Sprintf("network 10.0.%d.0/24;", i))
	}
	cfg := topo.Nodes[0].Config
	topo.Nodes[0].Config = append(append(append([]string{}, cfg[:3]...), nets...), cfg[3:]...)
	return topo
}

// TestReplicaPageCacheWarmRounds is the paging acceptance at fleet
// level: a two-round ReuseState schedule against a replica pool must
// land on the unpaged fleet's snapshot, and the second round — whose
// checkpoint is unchanged, so it ships the key manifest and no pages —
// must move fewer bytes than the first by at least half the checkpoint.
func TestReplicaPageCacheWarmRounds(t *testing.T) {
	opts := fedOpts()
	opts.ReuseState = true

	ref := loopbackCoordinator(t, fatLeakTopo3(), opts)
	if _, err := ref.Round(); err != nil {
		t.Fatal(err)
	}
	refWarm, err := ref.Round()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(refWarm.Snapshot(), "\n")

	var wire int64
	pool := &ReplicaPool{Dialers: []Dialer{
		countingDialer{inner: ReplicaLoopback{Replica: NewReplica()}, bytes: &wire},
	}}
	coord := loopbackCoordinator(t, fatLeakTopo3(), opts, WithReplicas(pool))
	if _, err := coord.Round(); err != nil {
		t.Fatal(err)
	}
	cold := atomic.LoadInt64(&wire)
	res, err := coord.Round()
	if err != nil {
		t.Fatal(err)
	}
	warm := atomic.LoadInt64(&wire) - cold
	if st := pool.Stats(); st.Completed != 2 {
		t.Fatalf("pool completed %d shards over two rounds, want 2", st.Completed)
	}
	if got := strings.Join(res.Snapshot(), "\n"); got != want {
		t.Errorf("paged warm round diverged:\n--- no replicas ---\n%s\n--- paged ---\n%s", want, got)
	}
	ck, _ := checkpointAndSeed(t, fatLeakTopo3())
	if cold-warm < int64(ck.Size())/2 {
		t.Errorf("cold round moved %d bytes, warm round %d, checkpoint is %d — warm shipping saved nothing", cold, warm, ck.Size())
	}
}

// writeCountingConn counts only the bytes written toward the replica,
// isolating request traffic from the (identically sized) results.
type writeCountingConn struct {
	io.ReadWriteCloser
	n *int64
}

func (w writeCountingConn) Write(p []byte) (int, error) {
	n, err := w.ReadWriteCloser.Write(p)
	atomic.AddInt64(w.n, int64(n))
	return n, err
}

// replicaClient dials r over the pipe transport and handshakes under
// session, as a pool worker does; the request bytes it writes are counted
// into written. The connection closes with the test.
func replicaClient(t *testing.T, r *Replica, session uint64, written *int64) *Client {
	t.Helper()
	conn, err := (ReplicaLoopback{Replica: r}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(writeCountingConn{ReadWriteCloser: conn, n: written})
	t.Cleanup(func() { cl.Close() })
	cl.Session = session
	if _, err := cl.Handshake(); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestReplicaPageCacheWireReduction is the counting-dialer acceptance
// in its sharpest form: two identical exploreCalls on one connection
// differ only in page shipment — the first carries every page of the
// checkpoint, the second only their keys — so the second call's
// request bytes must drop by at least half the state size.
func TestReplicaPageCacheWireReduction(t *testing.T) {
	topo := leakTopo3()
	ck, seed := checkpointAndSeed(t, topo)
	boundary, err := topo.BoundaryCommunity()
	if err != nil {
		t.Fatal(err)
	}
	var written int64
	cl := replicaClient(t, NewReplica(), 32, &written)

	params := &ReplicaExploreParams{
		Node: "provider", Config: topo.Nodes[1].Config,
		Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true,
		EngineKnobs: EngineKnobs{MaxRuns: 1000}, Boundary: boundary, Seed: seed,
	}
	pool := &ReplicaPool{}
	acked := make(map[checkpoint.Key]struct{})
	atomic.StoreInt64(&written, 0)
	var out ReplicaExploreResult
	if err := pool.exploreCall(cl, params, ck, acked, &out); err != nil {
		t.Fatal(err)
	}
	first := atomic.LoadInt64(&written)

	atomic.StoreInt64(&written, 0)
	var again ReplicaExploreResult
	if err := pool.exploreCall(cl, params, ck, acked, &again); err != nil {
		t.Fatal(err)
	}
	second := atomic.LoadInt64(&written)

	if len(out.Findings) == 0 || len(again.Findings) != len(out.Findings) {
		t.Fatalf("explores disagree: %d then %d findings", len(out.Findings), len(again.Findings))
	}
	if saved := first - second; saved < int64(ck.Size())/2 {
		t.Errorf("repeat shipment saved %d bytes of a %d-byte state; first call wrote %d, second %d",
			saved, ck.Size(), first, second)
	}
}

// TestReplicaPageMissRecovery drives exploreCall against a replica
// whose store cannot honor the sender's ack assumptions: every page is
// marked acked without ever being shipped. The first call must come
// back as MissingPages (a result, not an error), and exploreCall must
// recover with one full re-send on the same connection — the
// self-healing path for a replica that released the shard's snapshot.
func TestReplicaPageMissRecovery(t *testing.T) {
	topo := leakTopo3()
	ck, seed := checkpointAndSeed(t, topo)
	boundary, err := topo.BoundaryCommunity()
	if err != nil {
		t.Fatal(err)
	}
	cl := replicaClient(t, NewReplica(), 31, new(int64))

	params := &ReplicaExploreParams{
		Node: "provider", Config: topo.Nodes[1].Config,
		Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true,
		EngineKnobs: EngineKnobs{MaxRuns: 1000}, Boundary: boundary, Seed: seed,
	}
	// Lie: claim every page of the state is already replica-side.
	acked := make(map[checkpoint.Key]struct{})
	for _, k := range ck.Keys() {
		acked[k] = struct{}{}
	}
	pool := &ReplicaPool{}
	var out ReplicaExploreResult
	if err := pool.exploreCall(cl, params, ck, acked, &out); err != nil {
		t.Fatalf("exploreCall did not recover from the cache miss: %v", err)
	}
	if len(out.MissingPages) != 0 {
		t.Fatalf("recovered result still reports missing pages: %v", out.MissingPages)
	}
	if len(out.Findings) == 0 {
		t.Error("explore over the recovered state found nothing")
	}
	// After recovery the acks are truthful: a repeat call ships no page
	// data and still explores (the replica's store now holds every page).
	var again ReplicaExploreResult
	if err := pool.exploreCall(cl, params, ck, acked, &again); err != nil {
		t.Fatal(err)
	}
	if len(again.Findings) != len(out.Findings) {
		t.Errorf("manifest-only re-send found %d findings, first call %d", len(again.Findings), len(out.Findings))
	}
}

// TestPropMatchBoundedByHello: an agent's `at` verdicts index the
// property list the coordinator shipped in its hello, so an answer longer
// than that list is a malformed frame, not evidence.
func TestPropMatchBoundedByHello(t *testing.T) {
	opts := fedOpts()
	opts.Properties = atProps()
	c := loopbackCoordinator(t, leakTopo3(), opts)
	if _, err := c.routeView(&QueryOracleResult{PropMatch: make([]bool, len(c.propSrcs))}); err != nil {
		t.Errorf("a verdict per shipped property: %v", err)
	}
	if _, err := c.routeView(&QueryOracleResult{PropMatch: make([]bool, len(c.propSrcs)+1)}); !errors.Is(err, errFrame) {
		t.Errorf("one verdict too many returned %v, want a malformed-frame error", err)
	}
}

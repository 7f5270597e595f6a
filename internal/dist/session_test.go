package dist

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dice/internal/bgp"
	"dice/internal/core"
	"dice/internal/netaddr"
	"dice/internal/telemetry"
	"dice/internal/trace"
)

// TestSessionScopedExploreMemos: agents are long-lived servers, so the
// round-keyed explore memo must be scoped to one coordinator session.
// A reconnect carrying the same session nonce answers round-1 retries
// from the memo; a new session (fresh nonce, round sequence restarting
// at 1) must re-execute, not read the previous session's answer.
func TestSessionScopedExploreMemos(t *testing.T) {
	ag, err := NewAgent(leakTopo3(), "provider")
	if err != nil {
		t.Fatal(err)
	}
	dial := func(session uint64) *Client {
		t.Helper()
		conn, err := Loopback{Agent: ag}.Dial()
		if err != nil {
			t.Fatal(err)
		}
		cl := NewClient(conn)
		cl.Session = session
		if _, err := cl.Handshake(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	explore := func(cl *Client, maxRuns int) ExploreResult {
		t.Helper()
		var ex ExploreResult
		err := cl.Call(MethodExplore, &ExploreParams{
			Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true,
			EngineKnobs: EngineKnobs{MaxRuns: maxRuns}, Key: 1,
		}, &ex)
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}

	first := explore(dial(111), 500)
	if first.Runs <= 1 {
		t.Fatalf("reference explore finished in %d runs; the memo checks below need a multi-run exploration", first.Runs)
	}
	// Same session, new connection (a reconnect): round 1 answers from
	// the memo even though the params now cap the engine at one run.
	if r := explore(dial(111), 1); r.Runs != first.Runs {
		t.Errorf("same-session retry re-executed: %d runs, want memoized %d", r.Runs, first.Runs)
	}
	// New session: its own round 1 must not read the old memo. The
	// one-run cap makes a real execution distinguishable from the
	// multi-run memoized answer.
	if r := explore(dial(222), 1); r.Runs == first.Runs {
		t.Errorf("new session answered from the previous session's memo (%d runs)", r.Runs)
	}
}

// gatedHandler holds the first explore inside its execution — under the
// server's request lock — until the test releases it.
type gatedHandler struct {
	rpcHandler
	started, release chan struct{}
	once             sync.Once
}

func (g *gatedHandler) handle(method string, params message) (message, error) {
	if method == MethodExplore {
		g.once.Do(func() {
			close(g.started)
			<-g.release
		})
	}
	return g.rpcHandler.handle(method, params)
}

// TestDuplicateOnSecondConnection: a retry can reach the agent on a new
// connection while its original still runs on the old one. The server
// checks the memo under the lock the original executes under, so the
// duplicate waits and then answers from the memo — one execution. Under
// ReuseState a second execution would answer differently: it would skip
// the paths the first one explored.
func TestDuplicateOnSecondConnection(t *testing.T) {
	ag, err := NewAgent(leakTopo3(), "provider")
	if err != nil {
		t.Fatal(err)
	}
	ag.EnableTelemetry(telemetry.NewRegistry())
	gate := &gatedHandler{rpcHandler: ag, started: make(chan struct{}), release: make(chan struct{})}
	ag.handler = gate
	dial := func() *Client {
		t.Helper()
		conn, err := Loopback{Agent: ag}.Dial()
		if err != nil {
			t.Fatal(err)
		}
		cl := NewClient(conn)
		cl.Session = 333
		if _, err := cl.Handshake(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	first, second := dial(), dial()
	params := &ExploreParams{
		Peer: "customer", Scenario: core.ScenarioRouteLeak, Explicit: true,
		EngineKnobs: EngineKnobs{MaxRuns: 1000}, ReuseState: true, Key: 1,
	}
	hits := ag.am.memoHits.With("explore")
	before := hits.Value()

	var a, b ExploreResult
	pa := first.Go(MethodExplore, params, &a)
	<-gate.started
	// The pipe hands the duplicate to the second connection's reader
	// before Go returns; the pause lets its worker reach the lock.
	pb := second.Go(MethodExplore, params, &b)
	time.Sleep(20 * time.Millisecond)
	close(gate.release)
	if err := pa.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := pb.Wait(); err != nil {
		t.Fatal(err)
	}
	if a.Runs <= 1 {
		t.Fatalf("the original explored %d runs; the check below needs a multi-run exploration", a.Runs)
	}
	if b.Runs != a.Runs || b.NewPaths != a.NewPaths {
		t.Errorf("the duplicate answered %d runs / %d paths, the original %d / %d: it executed again", b.Runs, b.NewPaths, a.Runs, a.NewPaths)
	}
	if got := hits.Value() - before; got != 1 {
		t.Errorf("explore memo hits rose by %d, want 1", got)
	}
}

// TestSessionScopedReplayMemos is the cross-run replay collision from
// the wild: two dice runs against the same long-lived fleet both start
// their replay keys at 1. The second run's replay must feed its own
// trace into the fabric, not return the first run's memoized result.
func TestSessionScopedReplayMemos(t *testing.T) {
	raw, err := os.ReadFile("../../examples/replay/trace.mrtl")
	if err != nil {
		t.Fatal(err)
	}
	records, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	half := records[:len(records)/2]
	if len(half) == len(records) {
		t.Fatal("example trace too short to split")
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, half); err != nil {
		t.Fatal(err)
	}

	topo, err := core.LoadTopology("../../examples/federated/topo.json")
	if err != nil {
		t.Fatal(err)
	}
	var dialers []Dialer
	for _, n := range topo.Nodes {
		ag, err := NewAgent(topo, n.Name)
		if err != nil {
			t.Fatalf("agent %s: %v", n.Name, err)
		}
		dialers = append(dialers, Loopback{Agent: ag})
	}

	c1, err := Connect(topo, minimizeOpts(), dialers)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := c1.Replay("transitA", "stub", buf.Bytes())
	c1.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != len(half) {
		t.Fatalf("first session replayed %d of %d records", n1, len(half))
	}

	c2, err := Connect(topo, minimizeOpts(), dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	n2, err := c2.Replay("transitA", "stub", raw)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != len(records) {
		t.Fatalf("second session replayed %d records, want %d — the first session's key-1 memo answered instead of the fabric", n2, len(records))
	}
}

// TestDeliverIdempotentAndAtomic pins inject_witness at the agent: a
// delivery reports the watched prefix's route before and after it, a
// delivery re-sent under its key answers from the memo — the same pair —
// without touching the shadow again, and a run whose second delivery
// names an unknown peer fails before the first is applied — an error
// never leaves a half-applied shadow behind it.
func TestDeliverIdempotentAndAtomic(t *testing.T) {
	ag, err := NewAgent(leakTopo3(), "provider")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Loopback{Agent: ag}.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	defer cl.Close()
	const shadowID = 1
	sh, err := ag.shadow(shadowID, true)
	if err != nil {
		t.Fatal(err)
	}
	// The customer's own announcement, moved to a /24 the provider's
	// import filter accepts and re-announces upstream.
	u := *ag.self.LastObserved("customer")
	u.NLRI = []netaddr.Prefix{netaddr.MustParsePrefix("10.9.9.0/24")}
	wire, err := bgp.Encode(&u)
	if err != nil {
		t.Fatal(err)
	}
	type shadowState struct {
		updates  uint64
		prefixes int
	}
	state := func() shadowState {
		return shadowState{sh.Router().Counters().UpdatesProcessed, sh.Router().RIB().Prefixes()}
	}

	before := state()
	one := &InjectBatchParams{ShadowID: shadowID, Deliveries: []BatchDelivery{{From: "customer", Msg: wire, Watch: u.NLRI[0]}}, Key: 1}
	var first, again InjectBatchResult
	if err := cl.Call(MethodInjectWitness, one, &first); err != nil {
		t.Fatal(err)
	}
	applied := state()
	if applied.updates != before.updates+1 || len(first.Results) != 1 || len(first.Results[0].Emitted) == 0 {
		t.Fatalf("delivery processed %d updates and answered %+v, want 1 update with emissions", applied.updates-before.updates, first)
	}
	if r := first.Results[0]; r.Before != 0 || r.After.BestToken == 0 || !r.After.HasCovering || r.After.CoveringNextPeer != "customer" {
		t.Errorf("delivery installed 10.9.9.0/24 from customer but reported before=%d after=%+v", r.Before, r.After)
	}
	if err := cl.Call(MethodInjectWitness, one, &again); err != nil {
		t.Fatal(err)
	}
	if state() != applied {
		t.Errorf("re-sent key touched the shadow: %+v, was %+v", state(), applied)
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("re-sent key answered %+v, first answer %+v", again, first)
	}

	u.NLRI = []netaddr.Prefix{netaddr.MustParsePrefix("10.9.8.0/24")}
	if wire, err = bgp.Encode(&u); err != nil {
		t.Fatal(err)
	}
	bad := &InjectBatchParams{ShadowID: shadowID, Key: 2, Deliveries: []BatchDelivery{
		{From: "customer", Msg: wire}, {From: "nonesuch", Msg: wire},
	}}
	if err := cl.Call(MethodInjectWitness, bad, &InjectBatchResult{}); err == nil || !strings.Contains(err.Error(), `no peer "nonesuch"`) {
		t.Fatalf("run with an unknown sender returned %v", err)
	}
	if state() != applied {
		t.Errorf("failed run left a half-applied shadow: %+v, was %+v", state(), applied)
	}
}

// TestInjectAllocatesPerEmission: a batch of n deliveries into one shadow
// allocates in proportion to what it emits, not to n × everything the
// clone ever sent — the sink is drained per delivery, never re-copied.
// Per-delivery bytes must not grow with the batch.
func TestInjectAllocatesPerEmission(t *testing.T) {
	ag, err := NewAgent(leakTopo3(), "provider")
	if err != nil {
		t.Fatal(err)
	}
	u := *ag.self.LastObserved("customer")
	perDelivery := func(n int) float64 {
		ag.shadow(uint64(n), true) //nolint:errcheck // an opening lookup cannot fail
		p := &InjectBatchParams{ShadowID: uint64(n), Deliveries: make([]BatchDelivery, n)}
		for i := range p.Deliveries {
			u.NLRI = []netaddr.Prefix{netaddr.PrefixFrom(netaddr.AddrFrom4(10, 9, byte(i>>8), byte(i)), 32)}
			wire, err := bgp.Encode(&u)
			if err != nil {
				t.Fatal(err)
			}
			p.Deliveries[i] = BatchDelivery{From: "customer", Msg: wire, Watch: u.NLRI[0]}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := ag.inject(p)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range out.Results {
			if len(r.Emitted) == 0 {
				t.Fatalf("delivery %d of %d emitted nothing — the history this test is about never grew", i, n)
			}
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	small, large := perDelivery(64), perDelivery(1024)
	if large > 1.5*small {
		t.Errorf("a delivery costs %.0f B in a batch of 64 and %.0f B in a batch of 1024: allocation grows with the shadow's history", small, large)
	}
}

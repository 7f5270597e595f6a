package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"dice/internal/bgp"
	"dice/internal/netsim"
	"dice/internal/router"
	"dice/internal/trace"
)

// fig2Table is the Fig. 2 table load's dump: the victims and 20k
// generated prefixes (seed 1).
func fig2Table() []trace.Record {
	return append(Victims(), genTrace(Scale{TableSize: 20_000, Seed: 1})...)
}

// BenchmarkFig2LoadTable loads the 20k dump into a fresh Fig. 2
// provider per iteration (the topology's build is not measured): the
// live UPDATE path — session, router pipeline, RIB, export, netsim —
// with allocations reported.
func BenchmarkFig2LoadTable(b *testing.B) {
	recs := fig2Table()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := f.LoadTable(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// loadTableAllocs bounds what BenchmarkFig2LoadTable's op allocates: the
// routes, trie nodes, attribute sets and encodings the fabric keeps, and
// nothing per UPDATE it does not (282 128 objects, 17.0 MB, when the
// bound was set), with 10 % of headroom.
const loadTableAllocs = 310_400

// TestLoadTableAllocBudget holds a 20k table load to loadTableAllocs.
func TestLoadTableAllocBudget(t *testing.T) {
	recs := fig2Table()
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := f.LoadTable(recs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	objs := after.Mallocs - before.Mallocs
	t.Logf("a %d-record table load allocates %d objects, %.1f MB", len(recs), objs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	if raceEnabled {
		t.Skip("the race detector's allocations are not the steady state's")
	}
	if objs > loadTableAllocs {
		t.Errorf("a table load allocates %d objects, budget %d", objs, loadTableAllocs)
	}
}

// seedTrace is a small dump and update stream whose updates end, at the
// record cut returns, in an announcement and in a withdraw.
func seedTrace(t *testing.T) (dump, updates []trace.Record, cut func(kind trace.Kind) []trace.Record) {
	t.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.TableSize, cfg.UpdateCount, cfg.Duration = 300, 120, time.Minute
	for _, r := range trace.Generate(cfg) {
		if r.Kind == trace.KindDump {
			dump = append(dump, r)
		} else {
			updates = append(updates, r)
		}
	}
	cut = func(kind trace.Kind) []trace.Record {
		for i := len(updates) - 1; i > 0; i-- {
			if updates[i].Kind == kind {
				return updates[:i+1]
			}
		}
		t.Fatalf("the trace has no %v record", kind)
		return nil
	}
	return dump, updates, cut
}

// encoded is the wire form of a seed, nil for none.
func encoded(t *testing.T, u *bgp.Update) []byte {
	t.Helper()
	if u == nil {
		return nil
	}
	wire, err := bgp.EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// wantWire is the wire form of a trace record, as replay sends it.
func wantWire(t *testing.T, rec trace.Record) []byte {
	t.Helper()
	wire, err := trace.EncodeUpdate(&rec)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestReplaySeedsAreLastReceived: after a replay, the provider's seeds
// from the replaying peer re-encode byte for byte to the last UPDATE it
// received (LastObserved) and the last one announcing (LastAnnounced),
// for a trace ending in an announcement and one ending in a withdraw.
func TestReplaySeedsAreLastReceived(t *testing.T) {
	dump, _, cut := seedTrace(t)
	for _, last := range []trace.Kind{trace.KindAnnounce, trace.KindWithdraw} {
		t.Run(last.String(), func(t *testing.T) {
			f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
			if err != nil {
				t.Fatal(err)
			}
			updates := cut(last)
			recs := append(append([]trace.Record(nil), dump...), updates...)
			if _, err := f.fabric.ReplayTrace(NodeProvider, NodeInternet, recs); err != nil {
				t.Fatal(err)
			}
			i := len(updates) - 1
			for updates[i].Kind != trace.KindAnnounce {
				i--
			}
			lastAnn := updates[i]
			p := f.Provider
			if got, want := encoded(t, p.LastObserved(NodeInternet)), wantWire(t, updates[len(updates)-1]); !bytes.Equal(got, want) {
				t.Errorf("LastObserved re-encodes to\n%x\nthe last UPDATE received was\n%x", got, want)
			}
			if got, want := encoded(t, p.LastAnnounced(NodeInternet)), wantWire(t, lastAnn); !bytes.Equal(got, want) {
				t.Errorf("LastAnnounced re-encodes to\n%x\nthe last announcement received was\n%x", got, want)
			}
			if p.LastObserved(NodeInternet) == p.LastObserved(NodeInternet) {
				t.Error("LastObserved handed out one Update twice: each read must decode its own")
			}
		})
	}
}

// TestCheckpointSeedsStayPut: a checkpoint's seeds are the ones the live
// node had when it was taken, whatever the live node receives after.
func TestCheckpointSeedsStayPut(t *testing.T) {
	dump, updates, _ := seedTrace(t)
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	half := len(updates) / 2
	if _, err := f.fabric.ReplayTrace(NodeProvider, NodeInternet, append(append([]trace.Record(nil), dump...), updates[:half]...)); err != nil {
		t.Fatal(err)
	}
	seeds := func(r *router.Router) [][]byte {
		var out [][]byte
		for _, peer := range []string{NodeCustomer, NodeInternet} {
			out = append(out, encoded(t, r.LastObserved(peer)), encoded(t, r.LastAnnounced(peer)))
		}
		return out
	}
	ckpt := f.Provider.Clone(netsim.NewCaptureSink())
	taken := seeds(ckpt)
	if _, err := f.ReplayUpdates(updates[half:]); err != nil {
		t.Fatal(err)
	}
	if live := seeds(f.Provider); bytes.Equal(live[2], taken[2]) {
		t.Fatal("vacuous: the live node's seed did not move")
	}
	for i, got := range seeds(ckpt) {
		if !bytes.Equal(got, taken[i]) {
			t.Errorf("checkpoint seed %d moved with the live node:\n%x\nwas\n%x", i, got, taken[i])
		}
	}
}

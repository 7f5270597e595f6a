package core

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dice/internal/bgp"
	"dice/internal/checkpoint"
	"dice/internal/concolic"
	"dice/internal/netaddr"
	"dice/internal/rib"
)

// TestCheckpointStaysFrozen: a checkpoint shares its trie and its routes
// with the live node (router.Clone shares the RIB trie's root; each side
// copies a path before it writes it), so nothing either side does
// afterwards may write a node, an entry or a route the other reaches. On
// Fig. 2 with a loaded table, the checkpoint's rendering just after
// checkpointOf must be byte-identical after an update-scenario round
// explored from it over COW clones, once without and once with the memory
// meter observing them, and after the live node took attribute flaps and
// withdrawals of the routes it shares.
func TestCheckpointStaysFrozen(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	recs := genTrace(Scale{TableSize: 2000, Seed: 1})
	if _, err := f.LoadTable(append(recs, Victims()...)); err != nil {
		t.Fatal(err)
	}
	tg := ResolvedTarget{Node: NodeProvider, Peer: NodeCustomer, Scenario: ScenarioUpdate}
	sc, seed, err := seedOf(f.Provider, tg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, sink := checkpointOf(f.Provider, nil)
	render := func() []byte { return bytes.Join(ckpt.EncodeStateChunks(), nil) }
	before := render()

	for _, meter := range []*memoryMeter{nil, {store: checkpoint.NewStore(0)}} {
		tp, err := prepareSeeded(ckpt, sink, tg, sc, seed, concolic.Options{MaxRuns: 300}, meter)
		if err != nil {
			t.Fatal(err)
		}
		if res := tp.analyze(tp.Engine.Explore()); len(res.Findings) == 0 {
			t.Fatal("the round found nothing: no explored route reached the RIB")
		}
	}
	if !bytes.Equal(render(), before) {
		t.Fatal("exploring from the checkpoint changed it")
	}

	sess := f.Internet.Session(NodeProvider)
	prefixes := f.Provider.RIB().Prefixes()
	withdrawn := 0
	for i, rec := range recs[:600] {
		u := &bgp.Update{Withdrawn: []netaddr.Prefix{rec.Prefix}}
		if i%3 != 0 {
			attrs := rec.Attrs
			attrs.ASPath = attrs.ASPath.Prepend(InternetAS)
			attrs.HasMED, attrs.MED = true, uint32(i)
			attrs.Communities = append(slices.Clip(attrs.Communities), bgp.MakeCommunity(InternetAS, uint16(i)))
			u = &bgp.Update{Attrs: attrs, NLRI: []netaddr.Prefix{rec.Prefix}}
		} else {
			withdrawn++
		}
		if err := sess.SendUpdate(u); err != nil {
			t.Fatal(err)
		}
		f.Net.Run(0)
	}
	if got := f.Provider.RIB().Prefixes(); got != prefixes-withdrawn {
		t.Fatalf("the live node holds %d prefixes after %d withdrawals from %d", got, withdrawn, prefixes)
	}
	if !bytes.Equal(render(), before) {
		t.Fatal("live updates after the checkpoint changed it")
	}
}

// countingLock is a mutex that counts its Lock calls.
type countingLock struct {
	sync.Mutex
	locks int
}

func (l *countingLock) Lock() {
	l.Mutex.Lock()
	l.locks++
}

// TestOneHoldPerRound: an ExploreScenario round takes the live node's
// state lock once — for the checkpoint, from which it also reads its
// seed — cold and warm.
func TestOneHoldPerRound(t *testing.T) {
	f := loadedFig2(t, BrokenCustomerFilter)
	for _, reuse := range []bool{false, true} {
		for _, scenario := range []string{ScenarioUpdate, ScenarioWithdraw} {
			l := &countingLock{}
			d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 200}, CloneLock: l, ReuseState: reuse})
			for round := 0; round < 3; round++ {
				before := l.locks
				if _, err := d.ExploreScenario(scenario, NodeCustomer); err != nil {
					t.Fatal(err)
				}
				if got := l.locks - before; got != 1 {
					t.Fatalf("%s round %d (reuse %v) took the lock %d times, want once", scenario, round, reuse, got)
				}
			}
		}
	}
}

// TestCheckpointsRaceLiveWrites: a checkpoint shares the live node's trie
// (rib.Table.Clone shares the root), so what the live node writes after
// it must land on nodes the checkpoint cannot reach. Under -race, one
// goroutine takes checkpoints under the node's lock and, outside it,
// explores from them over COW clones from two workers at once, once
// without and once with the memory meter observing them, walks, dumps and
// range-walks them, and holds each to its rendering when taken, while
// another pushes live UPDATEs, withdrawals and session flaps
// (WithdrawPeer) through the node under the lock.
func TestCheckpointsRaceLiveWrites(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	recs := genTrace(Scale{TableSize: 500, Seed: 1})
	if _, err := f.LoadTable(append(recs, Victims()...)); err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		writes atomic.Int64
	)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		sess, down := f.Internet.Session(NodeProvider), f.Provider.Session(NodeInternet)
		for i := 0; ; i = int(writes.Add(1)) {
			select {
			case <-stop:
				return
			default:
			}
			rec := recs[i%len(recs)]
			var err error
			mu.Lock()
			switch {
			case i%200 == 199:
				down.ConnDown("flap")
				down.RestoreEstablished(0, 0)
			case i%3 == 0:
				err = sess.SendUpdate(&bgp.Update{Withdrawn: []netaddr.Prefix{rec.Prefix}})
			default:
				attrs := rec.Attrs
				attrs.HasMED, attrs.MED = true, uint32(i)
				err = sess.SendUpdate(&bgp.Update{Attrs: attrs, NLRI: []netaddr.Prefix{rec.Prefix}})
			}
			f.Net.Run(0)
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()

	tg := ResolvedTarget{Node: NodeProvider, Peer: NodeCustomer, Scenario: ScenarioUpdate}
	engine := concolic.Options{MaxRuns: 100, Workers: 2}
	// At least six rounds, and on until the writer has flapped the
	// session twice.
	for round := 0; round < 6 || writes.Load() < 400; round++ {
		ckpt, sink := checkpointOf(f.Provider, &mu)
		render := func() []byte { return bytes.Join(ckpt.EncodeStateChunks(), nil) }
		before := render()
		sc, seed, err := seedOf(ckpt, tg)
		if err != nil {
			t.Fatal(err)
		}
		for _, meter := range []*memoryMeter{nil, {store: checkpoint.NewStore(0)}} {
			tp, err := prepareSeeded(ckpt, sink, tg, sc, seed, engine, meter)
			if err != nil {
				t.Fatal(err)
			}
			tp.analyze(tp.Engine.Explore())
		}
		rt, walked, ranged := ckpt.RIB(), 0, 0
		rt.Walk(func(*rib.Route) bool { walked++; return true })
		rt.WalkRange(0x0a000000, 0x0affffff, 24, func(*rib.Route) bool { ranged++; return true })
		if dump := rt.Dump(); len(dump) != walked || walked != rt.Prefixes() || ranged > walked {
			t.Fatalf("round %d: Dump %d, Walk %d, WalkRange %d routes over %d prefixes", round, len(dump), walked, ranged, rt.Prefixes())
		}
		if !bytes.Equal(render(), before) {
			t.Fatalf("round %d: the checkpoint changed under live writes", round)
		}
	}
}

package core

import (
	"bytes"
	"slices"
	"testing"

	"dice/internal/bgp"
	"dice/internal/checkpoint"
	"dice/internal/concolic"
	"dice/internal/netaddr"
)

// TestCheckpointStaysFrozen: a checkpoint shares its routes with the live
// node (router.Clone copies the trie, not the routes), so nothing either
// side does afterwards may write one. On Fig. 2 with a loaded table, the
// checkpoint's rendering just after checkpointOf must be byte-identical
// after an update-scenario round explored from it — over COW clones, and
// over the memory meter's Clones of it — and after the live node took
// attribute flaps and withdrawals of the routes it shares.
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

	meter := &memoryMeter{store: checkpoint.NewStore(0)}
	for _, decorate := range []runDecorator{nil, meter.decorate} {
		tp, err := prepareSeeded(ckpt, sink, tg, sc, seed, concolic.Options{MaxRuns: 300}, decorate)
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

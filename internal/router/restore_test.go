package router

import (
	"bytes"
	"testing"

	"dice/internal/bgp"
	"dice/internal/netaddr"
	"dice/internal/netsim"
)

func TestDecodeStateRoundTrip(t *testing.T) {
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	b := tn.routers["b"]

	state := bytes.Join(b.EncodeStateChunks(), nil)
	restored, err := DecodeState("b", b.Config(), netsim.NewCaptureSink(), state)
	if err != nil {
		t.Fatal(err)
	}
	// Same RIB contents.
	if restored.RIB().Prefixes() != b.RIB().Prefixes() || restored.RIB().Routes() != b.RIB().Routes() {
		t.Fatalf("RIB size mismatch: %d/%d vs %d/%d",
			restored.RIB().Prefixes(), restored.RIB().Routes(),
			b.RIB().Prefixes(), b.RIB().Routes())
	}
	orig := b.RIB().Dump()
	got := restored.RIB().Dump()
	for i := range orig {
		if orig[i].Prefix != got[i].Prefix || orig[i].PeerRouterID != got[i].PeerRouterID ||
			orig[i].Attrs.ASPath.String() != got[i].Attrs.ASPath.String() {
			t.Fatalf("route %d mismatch:\n%v\n%v", i, orig[i], got[i])
		}
	}
	// Sessions restored established with counters.
	sess := restored.Session("a")
	if sess.State() != bgp.StateEstablished {
		t.Fatalf("restored session state %v", sess.State())
	}
	if sess.UpdatesIn != b.Session("a").UpdatesIn {
		t.Fatal("session counters lost")
	}
	// Re-encoding the restored router reproduces the checkpoint exactly.
	if string(bytes.Join(restored.EncodeStateChunks(), nil)) != string(state) {
		t.Fatal("restore is not a fixed point of encode")
	}
}

func TestDecodeStateWithLocalRoutes(t *testing.T) {
	// Router "a" originates a network (local route, empty AS path) — the
	// encoding must round-trip it.
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	a := tn.routers["a"]
	state := bytes.Join(a.EncodeStateChunks(), nil)
	restored, err := DecodeState("a", a.Config(), netsim.NewCaptureSink(), state)
	if err != nil {
		t.Fatal(err)
	}
	rt := restored.RIB().Best(pfx("10.1.0.0/16"))
	if rt == nil || !rt.Local {
		t.Fatalf("local route lost: %v", rt)
	}
}

func TestDecodeStateRejectsGarbage(t *testing.T) {
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	b := tn.routers["b"]
	state := bytes.Join(b.EncodeStateChunks(), nil)

	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte("XXXX"), state[4:]...),
		"truncated":     state[:len(state)-3],
		"short meta":    state[:6],
		"corrupt route": append(append([]byte{}, state[:len(state)-10]...), 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0),
	}
	for name, bad := range cases {
		if _, err := DecodeState("b", b.Config(), netsim.NewCaptureSink(), bad); err == nil {
			t.Errorf("%s: DecodeState accepted corrupt state", name)
		}
	}
}

func TestRestoredRouterIsolated(t *testing.T) {
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	b := tn.routers["b"]
	sink := netsim.NewCaptureSink()
	restored, err := DecodeState("b", b.Config(), sink, bytes.Join(b.EncodeStateChunks(), nil))
	if err != nil {
		t.Fatal(err)
	}
	// The restored router's sends land in the sink only.
	before := tn.net.Pending()
	if err := restored.Session("a").SendUpdate(&bgp.Update{Withdrawn: []netaddr.Prefix{pfx("10.1.0.0/16")}}); err != nil {
		t.Fatal(err)
	}
	if tn.net.Pending() != before {
		t.Fatal("restored router leaked onto the live network")
	}
	if sink.Count() != 1 {
		t.Fatalf("sink count = %d", sink.Count())
	}
}

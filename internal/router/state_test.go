package router

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"

	"dice/internal/bgp"
	"dice/internal/codec"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/rib"
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

// stateFixture is router b of the two-router net with a RIB that holds
// every kind of record: a prefix learned from two peers, and a prefix
// with a local route beside a learned one, in two /12 buckets.
func stateFixture(t testing.TB) (a, b *Router) {
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	a, b = tn.routers["a"], tn.routers["b"]
	learned := b.RIB().Best(pfx("10.1.0.0/16")).Attrs
	local := a.RIB().Best(pfx("10.1.0.0/16")).Attrs
	for _, rt := range []*rib.Route{
		{Prefix: pfx("10.1.0.0/16"), Attrs: learned, PeerRouterID: ip("10.0.0.9"), PeerAS: 65009, EBGP: true},
		{Prefix: pfx("10.200.0.0/16"), Attrs: learned, PeerRouterID: ip("10.0.0.1"), PeerAS: 65001, EBGP: true},
		{Prefix: pfx("10.200.0.0/16"), Attrs: local, Local: true},
	} {
		b.loc.Insert(rt)
	}
	return a, b
}

// encodeWith runs one piece of the layout as an encoder.
func encodeWith(piece func(c *codec.C)) []byte {
	c := codec.Encoder(nil)
	piece(&c)
	return c.Buf()
}

// corruptStates derives malformed checkpoints from b's, each through the
// layout, with a fragment of the error it must produce ("" for any).
func corruptStates(b *Router) map[string]struct {
	state []byte
	want  string
} {
	chunks := b.EncodeStateChunks()
	meta, first, second := chunks[0], chunks[1], chunks[2]
	state := bytes.Join(chunks, nil)
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	edit := func(chunk []byte, at int, f func(byte) byte) []byte {
		out := append([]byte(nil), chunk...)
		out[at] = f(out[at])
		return out
	}
	// The first record is 10.1.0.0/16 with two learned candidates.
	p := pfx("10.1.0.0/16")
	var cands []*rib.Route
	b.RIB().WalkAll(func(q netaddr.Prefix, c []*rib.Route) bool {
		if q == p {
			cands = append(cands, c...)
		}
		return true
	})
	sort.Slice(cands, func(i, j int) bool { return candidateBefore(cands[j], cands[i]) })
	misordered := encodeWith(func(c *codec.C) { record(c, &p, &cands) })
	var none []*rib.Route
	empty := encodeWith(func(c *codec.C) { record(c, &p, &none) })
	three := 3
	metaOf3 := encodeWith(func(c *codec.C) { b.meta(c, &three) })
	flagsAt := 5 + 1 + 4 + 2 // prefix, candidate count, router ID, AS

	return map[string]struct {
		state []byte
		want  string
	}{
		"empty":                 {nil, ""},
		"bad magic":             {append([]byte("XXXX"), state[4:]...), "magic"},
		"truncated":             {state[:len(state)-3], ""},
		"short meta":            {state[:6], ""},
		"missing record":        {join(meta, first), ""},
		"corrupt route":         {append(append([]byte{}, state[:len(state)-10]...), 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0), ""},
		"host bits":             {join(meta, edit(first, 3, func(byte) byte { return 1 }), second), "host bits"},
		"unknown flag bits":     {join(meta, edit(first, flagsAt, func(f byte) byte { return f | 0x80 }), second), "flags"},
		"zero candidates":       {join(meta, empty, second), "no candidates"},
		"misordered candidates": {join(meta, misordered, second), "out of order"},
		"duplicate prefix":      {join(metaOf3, first, first, second), "does not follow"},
		"prefixes out of order": {join(meta, second, first), "does not follow"},
		"trailing bytes":        {append(append([]byte(nil), state...), 0), "trailing"},
	}
}

func TestDecodeStateRejectsGarbage(t *testing.T) {
	a, b := stateFixture(t)
	if got := len(b.EncodeStateChunks()); got != 3 {
		t.Fatalf("fixture checkpoint has %d chunks, want meta + 2 buckets", got)
	}
	cases := corruptStates(b)
	// Config drift: b's checkpoint restored under a's configuration,
	// whose one peer is named b, not a.
	cases["peer-name mismatch"] = struct {
		state []byte
		want  string
	}{bytes.Join(b.EncodeStateChunks(), nil), "config drift"}
	for name, tc := range cases {
		cfg := b.Config()
		if name == "peer-name mismatch" {
			cfg = a.Config()
		}
		_, err := DecodeState("b", cfg, netsim.NewCaptureSink(), tc.state)
		switch {
		case err == nil:
			t.Errorf("%s: DecodeState accepted corrupt state", name)
		case !errors.Is(err, errState):
			t.Errorf("%s: error %v does not wrap %v", name, err, errState)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// FuzzDecodeState: whatever bytes arrive as a checkpoint, DecodeState
// either restores a router or returns an error of its one class — never
// a panic — and a router it restores re-encodes to exactly the bytes it
// was restored from.
func FuzzDecodeState(f *testing.F) {
	_, b := stateFixture(f)
	f.Add(bytes.Join(b.EncodeStateChunks(), nil))
	for _, tc := range corruptStates(b) {
		f.Add(tc.state)
	}
	cfg := b.Config()
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeState("b", cfg, netsim.NewCaptureSink(), data)
		if err != nil {
			if !errors.Is(err, errState) {
				t.Fatalf("error %v does not wrap %v", err, errState)
			}
			return
		}
		if again := bytes.Join(r.EncodeStateChunks(), nil); !bytes.Equal(again, data) {
			t.Fatalf("accepted checkpoint re-encodes differently:\n read: %x\nwrote: %x", data, again)
		}
	})
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

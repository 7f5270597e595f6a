package bgp

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dice/internal/netaddr"
)

// propertyUpdate is TestUpdateRoundTripProperty's generator: up to 50
// NLRI from paired addresses and lengths, with the mandatory attributes
// whenever anything is announced.
func propertyUpdate(addrs []uint32, lens []uint8) *Update {
	n := min(len(addrs), len(lens), 50)
	var nlri []netaddr.Prefix
	for i := 0; i < n; i++ {
		nlri = append(nlri, netaddr.PrefixFrom(netaddr.Addr(addrs[i]), int(lens[i]%33)))
	}
	u := &Update{Attrs: baseAttrs(), NLRI: nlri}
	if len(nlri) == 0 {
		u.Attrs = Attrs{}
	}
	return u
}

func asns(n int, first uint16) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = first + uint16(i)
	}
	return out
}

func communities(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = MakeCommunity(65000, uint16(n-i)) // descending: encode sorts
	}
	return out
}

// encodeCase is one message of the pinned encoding corpus.
type encodeCase struct {
	name string
	msg  Message
}

// encodeCorpus is the fixed input of testdata/encode.golden: hand-written
// cases for every attribute form the encoder distinguishes, then the
// round-trip property's generator at a fixed seed.
func encodeCorpus() []encodeCase {
	withAttrs := func(mod func(*Attrs)) *Update {
		a := baseAttrs()
		mod(&a)
		return &Update{Attrs: a, NLRI: []netaddr.Prefix{pfx("203.0.113.0/24")}}
	}
	cases := []encodeCase{
		{"unsorted-communities", withAttrs(func(a *Attrs) {
			a.Communities = []uint32{MakeCommunity(65001, 300), MakeCommunity(65001, 100), MakeCommunity(65000, 5)}
		})},
		{"duplicate-communities", withAttrs(func(a *Attrs) {
			a.Communities = []uint32{MakeCommunity(65001, 7), CommunityNoExport, MakeCommunity(65001, 7)}
		})},
		{"sorted-communities", withAttrs(func(a *Attrs) {
			a.Communities = []uint32{MakeCommunity(1, 1), MakeCommunity(1, 2), CommunityNoExport}
		})},
		{"many-unsorted-communities", withAttrs(func(a *Attrs) { a.Communities = communities(40) })},
		{"extended-length-communities", withAttrs(func(a *Attrs) { a.Communities = communities(80) })},
		{"as-set", withAttrs(func(a *Attrs) {
			a.ASPath = ASPath{{Type: ASSequence, ASNs: []uint16{65001}}, {Type: ASSet, ASNs: []uint16{65003, 65002}}}
		})},
		{"extended-length-as-path", withAttrs(func(a *Attrs) {
			a.ASPath = ASPath{{Type: ASSequence, ASNs: asns(200, 64000)}}
		})},
		{"full-segment-as-path", withAttrs(func(a *Attrs) {
			a.ASPath = ASPath{{Type: ASSequence, ASNs: asns(255, 1)}, {Type: ASSet, ASNs: asns(3, 9)}}
		})},
		{"empty-as-path", withAttrs(func(a *Attrs) { a.ASPath = ASPath{} })},
		{"unknown-transitive", withAttrs(func(a *Attrs) {
			a.Unknown = []RawAttr{
				{Flags: FlagOptional | FlagTransitive | FlagPartial, Code: 99, Value: []byte{1, 2, 3}},
				{Flags: FlagOptional | FlagTransitive | FlagPartial | FlagExtLen, Code: 100, Value: []byte{4}},
				{Flags: FlagOptional | FlagTransitive | FlagPartial, Code: 101, Value: bytes.Repeat([]byte{0xab}, 300)},
			}
		})},
		{"every-attribute", withAttrs(func(a *Attrs) {
			a.Origin = OriginIncomplete
			a.HasMED, a.MED = true, 0xdeadbeef
			a.HasLocalPref, a.LocalPref = true, 250
			a.AtomicAggregate = true
			a.Aggregator = &Aggregator{AS: 65009, Router: addr("10.9.9.9")}
			a.Communities = []uint32{MakeCommunity(65002, 2), MakeCommunity(65001, 1)}
			a.Unknown = []RawAttr{{Flags: FlagOptional | FlagTransitive | FlagPartial, Code: 42, Value: nil}}
		})},
		{"withdraw-only", &Update{Withdrawn: []netaddr.Prefix{pfx("198.51.100.0/24"), pfx("10.0.0.0/8"), pfx("0.0.0.0/0")}}},
		{"withdraw-and-announce", &Update{
			Withdrawn: []netaddr.Prefix{pfx("198.51.100.0/24")},
			Attrs:     baseAttrs(),
			NLRI:      []netaddr.Prefix{pfx("203.0.113.0/24"), pfx("192.0.2.1/32"), pfx("0.0.0.0/0")},
		}},
		{"empty-update", &Update{}},
		{"open", &Open{Version: 4, AS: 65001, HoldTime: 90, RouterID: addr("10.0.0.1"),
			OptParams: []OptParam{{Type: 2, Value: []byte{1, 4, 0, 1, 0, 1}}}}},
		{"keepalive", &Keepalive{}},
		{"notification", &Notification{Code: ErrCodeUpdateMessage, Subcode: ErrSubMalformedASPath, Data: []byte{7, 8}}},
		{"error-oversized-segment", withAttrs(func(a *Attrs) {
			a.ASPath = ASPath{{Type: ASSequence, ASNs: asns(256, 1)}}
		})},
		{"error-empty-segment", withAttrs(func(a *Attrs) { a.ASPath = ASPath{{Type: ASSequence}} })},
		{"error-bad-origin", withAttrs(func(a *Attrs) { a.Origin = 3 })},
		{"error-message-too-long", withAttrs(func(a *Attrs) { a.Communities = communities(1100) })},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		addrs, _ := quick.Value(reflect.TypeOf([]uint32(nil)), rng)
		lens, _ := quick.Value(reflect.TypeOf([]uint8(nil)), rng)
		cases = append(cases, encodeCase{fmt.Sprintf("property-%02d", i), propertyUpdate(addrs.Interface().([]uint32), lens.Interface().([]uint8))})
	}
	return cases
}

// encodeGolden renders the corpus one line per case: the hex of Encode,
// or the error it returned.
func encodeGolden() string {
	var b strings.Builder
	for _, c := range encodeCorpus() {
		wire, err := Encode(c.msg)
		if err != nil {
			fmt.Fprintf(&b, "%s error: %v\n", c.name, err)
			continue
		}
		fmt.Fprintf(&b, "%s %x\n", c.name, wire)
	}
	return b.String()
}

// TestEncodeGolden pins Encode's bytes over the corpus. The golden file
// is not regenerated by any flag: an encoder change that moves a byte is
// a wire change and fails here.
func TestEncodeGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/encode.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(encodeGolden(), "\n")
	lines := strings.Split(string(want), "\n")
	if len(got) != len(lines) {
		t.Fatalf("corpus renders %d lines, the golden has %d", len(got), len(lines))
	}
	for i := range got {
		if got[i] != lines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], lines[i])
		}
	}
}

// normalized is m with its communities in encoding (sorted) order — the
// one difference a decode → encode → decode trip is allowed to make.
func normalized(m Message) Message {
	u, ok := m.(*Update)
	if !ok || len(u.Attrs.Communities) == 0 {
		return m
	}
	cp := *u
	cp.Attrs.Communities = slices.Clone(u.Attrs.Communities)
	slices.Sort(cp.Attrs.Communities)
	return &cp
}

// FuzzUpdateCodec: anything Decode accepts re-encodes, the re-encoding
// decodes to the same message (communities in canonical order), and
// encoding that decoded message again gives the same bytes.
func FuzzUpdateCodec(f *testing.F) {
	for _, c := range encodeCorpus() {
		if wire, err := Encode(c.msg); err == nil {
			f.Add(wire)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		wire, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", m, err)
		}
		back, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-encoding %x does not decode: %v", wire, err)
		}
		if want := normalized(m); !reflect.DeepEqual(back, want) {
			t.Fatalf("re-encoding decodes to %+v, want %+v", back, want)
		}
		again, err := Encode(back)
		if err != nil || !bytes.Equal(again, wire) {
			t.Fatalf("encoding is not idempotent: %x then %x (%v)", wire, again, err)
		}
	})
}

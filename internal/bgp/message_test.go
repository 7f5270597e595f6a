package bgp

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"dice/internal/netaddr"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }
func addr(s string) netaddr.Addr  { return netaddr.MustParseAddr(s) }

func baseAttrs() Attrs {
	return Attrs{
		HasOrigin:  true,
		Origin:     OriginIGP,
		ASPath:     ASPath{{Type: ASSequence, ASNs: []uint16{65001, 65002}}},
		HasNextHop: true,
		NextHop:    addr("192.0.2.1"),
	}
}

func TestOpenRoundTrip(t *testing.T) {
	o := &Open{
		Version:  4,
		AS:       65001,
		HoldTime: 90,
		RouterID: addr("10.0.0.1"),
		OptParams: []OptParam{
			{Type: 2, Value: []byte{1, 4, 0, 1, 0, 1}}, // capability-ish blob
		},
	}
	wire, err := Encode(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) < HeaderLen || wire[18] != MsgOpen {
		t.Fatalf("bad wire: %x", wire)
	}
	m, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*Open)
	if !reflect.DeepEqual(got, o) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, o)
	}
}

func TestOpenValidation(t *testing.T) {
	mk := func(mod func(*Open)) []byte {
		o := &Open{Version: 4, AS: 65001, HoldTime: 90, RouterID: addr("10.0.0.1")}
		mod(o)
		wire, err := Encode(o)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	if _, err := Decode(mk(func(o *Open) { o.Version = 3 })); err == nil {
		t.Error("version 3 should be rejected")
	}
	if _, err := Decode(mk(func(o *Open) { o.HoldTime = 2 })); err == nil {
		t.Error("hold time 2 should be rejected")
	}
	if _, err := Decode(mk(func(o *Open) { o.RouterID = 0 })); err == nil {
		t.Error("zero router ID should be rejected")
	}
	if _, err := Decode(mk(func(o *Open) { o.HoldTime = 0 })); err != nil {
		t.Errorf("hold time 0 (disabled) should be accepted: %v", err)
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	wire, err := Encode(&Keepalive{})
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != HeaderLen {
		t.Fatalf("keepalive length %d, want %d", len(wire), HeaderLen)
	}
	if _, err := Decode(wire); err != nil {
		t.Fatal(err)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := &Notification{Code: ErrCodeUpdateMessage, Subcode: ErrSubInvalidOrigin, Data: []byte{9}}
	wire, err := Encode(n)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*Notification); got.Code != n.Code || got.Subcode != n.Subcode || !bytes.Equal(got.Data, n.Data) {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := &Update{
		Withdrawn: []netaddr.Prefix{pfx("198.51.100.0/24")},
		Attrs: Attrs{
			HasOrigin:       true,
			Origin:          OriginEGP,
			ASPath:          ASPath{{Type: ASSequence, ASNs: []uint16{65001}}, {Type: ASSet, ASNs: []uint16{65002, 65003}}},
			HasNextHop:      true,
			NextHop:         addr("192.0.2.1"),
			HasMED:          true,
			MED:             50,
			HasLocalPref:    true,
			LocalPref:       200,
			AtomicAggregate: true,
			Aggregator:      &Aggregator{AS: 65009, Router: addr("10.9.9.9")},
			Communities:     []uint32{MakeCommunity(65001, 666), MakeCommunity(65001, 100)},
		},
		NLRI: []netaddr.Prefix{pfx("203.0.113.0/24"), pfx("10.0.0.0/8"), pfx("192.0.2.128/25")},
	}
	wire, err := Encode(u)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*Update)
	if !reflect.DeepEqual(got.Withdrawn, u.Withdrawn) {
		t.Errorf("withdrawn mismatch: %v", got.Withdrawn)
	}
	if !reflect.DeepEqual(got.NLRI, u.NLRI) {
		t.Errorf("nlri mismatch: %v", got.NLRI)
	}
	if got.Attrs.Origin != OriginEGP || !got.Attrs.HasMED || got.Attrs.MED != 50 ||
		!got.Attrs.HasLocalPref || got.Attrs.LocalPref != 200 || !got.Attrs.AtomicAggregate {
		t.Errorf("attrs mismatch: %+v", got.Attrs)
	}
	if got.Attrs.Aggregator == nil || got.Attrs.Aggregator.AS != 65009 {
		t.Errorf("aggregator mismatch: %+v", got.Attrs.Aggregator)
	}
	// Communities are canonically sorted on encode.
	if len(got.Attrs.Communities) != 2 || got.Attrs.Communities[0] != MakeCommunity(65001, 100) {
		t.Errorf("communities mismatch: %v", got.Attrs.Communities)
	}
	if got.Attrs.ASPath.String() != "65001 {65002,65003}" {
		t.Errorf("as path mismatch: %s", got.Attrs.ASPath)
	}
}

func TestUpdateMissingMandatory(t *testing.T) {
	for _, mod := range []func(*Attrs){
		func(a *Attrs) { a.HasOrigin = false },
		func(a *Attrs) { a.HasNextHop = false },
		func(a *Attrs) { a.ASPath = nil },
	} {
		a := baseAttrs()
		mod(&a)
		u := &Update{Attrs: a, NLRI: []netaddr.Prefix{pfx("203.0.113.0/24")}}
		wire, err := Encode(u)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(wire); err == nil {
			t.Errorf("update missing mandatory attribute accepted: %+v", a)
		}
	}
	// Withdraw-only UPDATE needs no attributes.
	u := &Update{Withdrawn: []netaddr.Prefix{pfx("203.0.113.0/24")}}
	wire, err := Encode(u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(wire); err != nil {
		t.Errorf("withdraw-only update rejected: %v", err)
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	good, _ := Encode(&Keepalive{})

	short := good[:10]
	if _, err := Decode(short); err == nil {
		t.Error("short message accepted")
	}

	badMarker := append([]byte(nil), good...)
	badMarker[0] = 0
	if _, err := Decode(badMarker); err == nil {
		t.Error("bad marker accepted")
	}

	badLen := append([]byte(nil), good...)
	badLen[16], badLen[17] = 0xff, 0xff
	if _, err := Decode(badLen); err == nil {
		t.Error("bad length accepted")
	}

	badType := append([]byte(nil), good...)
	badType[18] = 77
	if _, err := Decode(badType); err == nil {
		t.Error("bad type accepted")
	}

	kaBody := append([]byte(nil), good...)
	kaBody = append(kaBody, 0xAA)
	kaBody[17] = byte(len(kaBody))
	if _, err := Decode(kaBody); err == nil {
		t.Error("keepalive with body accepted")
	}
}

func TestDecodePrefixValidation(t *testing.T) {
	// prefix length 33
	u := []byte{33, 1, 2, 3, 4, 5}
	if _, err := decodePrefixes(nil, u); err == nil {
		t.Error("prefix length 33 accepted")
	}
	// truncated
	if _, err := decodePrefixes(nil, []byte{24, 1, 2}); err == nil {
		t.Error("truncated prefix accepted")
	}
	// host bits set: 10.0.0.1/8 encoded non-canonically is impossible in
	// 1 byte, use /24 with low bit garbage in third byte
	if _, err := decodePrefixes(nil, []byte{23, 10, 0, 1}); err == nil {
		t.Error("host bits accepted")
	}
	// valid default route
	ps, err := decodePrefixes(nil, []byte{0})
	if err != nil || len(ps) != 1 || ps[0].Bits() != 0 {
		t.Errorf("default route: %v %v", ps, err)
	}
}

func TestAttrValidation(t *testing.T) {
	// Duplicate attribute.
	var blob []byte
	blob = appendAttr(blob, FlagTransitive, AttrOrigin, []byte{0})
	blob = appendAttr(blob, FlagTransitive, AttrOrigin, []byte{1})
	if _, err := decodeAttrs(blob); err == nil {
		t.Error("duplicate ORIGIN accepted")
	}
	// Bad origin value.
	if _, err := decodeAttrs(appendAttr(nil, FlagTransitive, AttrOrigin, []byte{9})); err == nil {
		t.Error("origin 9 accepted")
	}
	// Bad flags on well-known attribute.
	if _, err := decodeAttrs(appendAttr(nil, FlagOptional, AttrOrigin, []byte{0})); err == nil {
		t.Error("optional ORIGIN accepted")
	}
	// Bad length.
	if _, err := decodeAttrs(appendAttr(nil, FlagTransitive, AttrOrigin, []byte{0, 0})); err == nil {
		t.Error("2-byte ORIGIN accepted")
	}
	// Unrecognized well-known (non-optional) attribute.
	if _, err := decodeAttrs(appendAttr(nil, FlagTransitive, 99, []byte{1})); err == nil {
		t.Error("unknown well-known attribute accepted")
	}
	// Unknown transitive optional is preserved with Partial bit.
	a, err := decodeAttrs(appendAttr(nil, FlagOptional|FlagTransitive, 99, []byte{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Unknown) != 1 || a.Unknown[0].Flags&FlagPartial == 0 {
		t.Errorf("unknown transitive not preserved: %+v", a.Unknown)
	}
	// Unknown non-transitive optional is dropped silently.
	a, err = decodeAttrs(appendAttr(nil, FlagOptional, 98, []byte{1}))
	if err != nil || len(a.Unknown) != 0 {
		t.Errorf("unknown non-transitive handling: %+v %v", a.Unknown, err)
	}
	// Bad next hop.
	nh := []byte{0, 0, 0, 0}
	if _, err := decodeAttrs(appendAttr(nil, FlagTransitive, AttrNextHop, nh)); err == nil {
		t.Error("0.0.0.0 next hop accepted")
	}
}

func TestASPathOps(t *testing.T) {
	p := ASPath{{Type: ASSequence, ASNs: []uint16{65001, 65002}}, {Type: ASSet, ASNs: []uint16{65004, 65003}}}
	if p.Length() != 3 { // seq(2) + set(1)
		t.Errorf("length = %d, want 3", p.Length())
	}
	if p.OriginAS() != 65003 { // smallest in trailing set
		t.Errorf("origin = %d", p.OriginAS())
	}
	if p.FirstAS() != 65001 {
		t.Errorf("first = %d", p.FirstAS())
	}
	if !p.Contains(65004) || p.Contains(64999) {
		t.Error("contains wrong")
	}

	q := p.Prepend(65000)
	if q.FirstAS() != 65000 || q.Length() != 4 {
		t.Errorf("prepend: %v", q)
	}
	// Original is unchanged (copy-on-prepend).
	if p.FirstAS() != 65001 {
		t.Error("prepend mutated the original")
	}

	seq := ASPath{{Type: ASSequence, ASNs: []uint16{65002}}}
	if got := seq.Prepend(65001); got.String() != "65001 65002" {
		t.Errorf("prepend to seq: %s", got)
	}
	var empty ASPath
	if empty.OriginAS() != 0 || empty.FirstAS() != 0 || empty.Length() != 0 {
		t.Error("empty path ops wrong")
	}
	if got := empty.Prepend(65001); got.String() != "65001" {
		t.Errorf("prepend to empty: %s", got)
	}
}

func TestASPathEncodingErrors(t *testing.T) {
	a := baseAttrs()
	a.ASPath = ASPath{{Type: ASSequence, ASNs: nil}}
	if _, err := a.encode(nil, 0, false); err == nil {
		t.Error("empty segment encoded")
	}
	// Decoding malformed segments.
	if _, err := decodeASPath([]byte{9, 1, 0, 1}); err == nil {
		t.Error("bad segment type accepted")
	}
	if _, err := decodeASPath([]byte{2, 0}); err == nil {
		t.Error("empty segment accepted")
	}
	if _, err := decodeASPath([]byte{2, 2, 0, 1}); err == nil {
		t.Error("truncated segment accepted")
	}
}

func TestCommunities(t *testing.T) {
	c := MakeCommunity(65001, 666)
	if as, v := uint16(c>>16), uint16(c); as != 65001 || v != 666 {
		t.Fatalf("split: %d:%d", as, v)
	}
	a := Attrs{Communities: []uint32{c}}
	if !a.HasCommunity(c) || a.HasCommunity(MakeCommunity(1, 1)) {
		t.Fatal("HasCommunity wrong")
	}
}

func TestFrame(t *testing.T) {
	w1, _ := Encode(&Keepalive{})
	w2, _ := Encode(&Notification{Code: 6})
	stream := append(append([]byte{}, w1...), w2...)

	msg, rest, err := Frame(stream)
	if err != nil || !bytes.Equal(msg, w1) {
		t.Fatalf("frame 1: %v", err)
	}
	msg, rest, err = Frame(rest)
	if err != nil || !bytes.Equal(msg, w2) || len(rest) != 0 {
		t.Fatalf("frame 2: %v", err)
	}
	if _, _, err := Frame(w1[:5]); err != ErrTruncated {
		t.Fatalf("short stream: %v", err)
	}
	bad := append([]byte(nil), w1...)
	bad[16], bad[17] = 0, 1
	if _, _, err := Frame(bad); err == nil || err == ErrTruncated {
		t.Fatalf("bad stream length: %v", err)
	}
}

func TestOriginString(t *testing.T) {
	if OriginString(OriginIGP) != "IGP" || OriginString(OriginEGP) != "EGP" ||
		OriginString(OriginIncomplete) != "Incomplete" || OriginString(7) == "" {
		t.Fatal("origin strings wrong")
	}
}

func TestAttrsClone(t *testing.T) {
	a := baseAttrs()
	a.Communities = []uint32{1, 2}
	a.Aggregator = &Aggregator{AS: 65001, Router: addr("1.2.3.4")}
	a.Unknown = []RawAttr{{Flags: FlagOptional | FlagTransitive, Code: 99, Value: []byte{1}}}
	b := a.Clone()
	b.ASPath[0].ASNs[0] = 1
	b.Communities[0] = 9
	b.Aggregator.AS = 1
	b.Unknown[0].Value[0] = 7
	if a.ASPath[0].ASNs[0] == 1 || a.Communities[0] == 9 || a.Aggregator.AS == 1 || a.Unknown[0].Value[0] == 7 {
		t.Fatal("clone shares memory with original")
	}
}

// Property: Update encode/decode round-trips for arbitrary valid prefixes.
func TestUpdateRoundTripProperty(t *testing.T) {
	f := func(addrs []uint32, lens []uint8) bool {
		u := propertyUpdate(addrs, lens)
		nlri := u.NLRI
		wire, err := Encode(u)
		if err != nil {
			return false
		}
		m, err := Decode(wire)
		if err != nil {
			return false
		}
		got := m.(*Update)
		if len(got.NLRI) != len(nlri) {
			return false
		}
		for i := range nlri {
			if got.NLRI[i] != nlri[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeUpdate(b *testing.B) {
	u := &Update{Attrs: baseAttrs(), NLRI: []netaddr.Prefix{pfx("203.0.113.0/24"), pfx("10.0.0.0/8")}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeUpdate(b *testing.B) {
	u := &Update{Attrs: baseAttrs(), NLRI: []netaddr.Prefix{pfx("203.0.113.0/24"), pfx("10.0.0.0/8")}}
	wire, _ := Encode(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: Decode never panics and never returns both a message and an
// error, for arbitrary byte soup — the robustness a daemon facing the
// open Internet needs.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		m, err := Decode(raw)
		if m != nil && err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: mutating any single byte of a valid UPDATE either still
// decodes (to possibly different content) or yields a clean error —
// never a panic, and header mutations are always caught.
func TestDecodeSingleByteMutation(t *testing.T) {
	u := &Update{Attrs: baseAttrs(), NLRI: []netaddr.Prefix{pfx("203.0.113.0/24")}}
	wire, err := Encode(u)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(wire); i++ {
		for _, delta := range []byte{1, 0x80, 0xff} {
			mut := append([]byte(nil), wire...)
			mut[i] ^= delta
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on mutation at byte %d: %v", i, r)
					}
				}()
				_, _ = Decode(mut)
			}()
		}
	}
}

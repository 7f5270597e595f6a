package codec

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"dice/internal/netaddr"
)

var errTest = errors.New("test: malformed")

// sample exercises every primitive, a List and a Tail in one layout.
type sample struct {
	A    uint8
	B    uint16
	C    uint32
	D    uint64
	Key  [4]byte
	V    uint64
	N    int
	OK   bool
	Raw  []byte
	S    string
	List []string
	Opt  []uint16
}

func (s *sample) layout(c *C) {
	c.U8(&s.A)
	c.U16(&s.B)
	c.U32(&s.C)
	c.U64(&s.D)
	c.Fixed(s.Key[:])
	c.Uvarint(&s.V)
	c.Uint(&s.N)
	c.Bool(&s.OK)
	c.Bytes(&s.Raw)
	c.Str(&s.S)
	List(c, &s.List, 1, c.Str)
	c.Tail(func() bool { return len(s.Opt) > 0 }, "opt", func() { List(c, &s.Opt, 2, c.U16) })
}

func encode(s *sample) []byte {
	c := Encoder(nil)
	s.layout(&c)
	return c.Buf()
}

func decode(b []byte) (sample, error) {
	var s sample
	c := Decoder(b, errTest)
	s.layout(&c)
	return s, c.Finish()
}

// TestLayoutRoundTrip: one layout encodes and decodes; every strict
// prefix but the one ending where the tail starts, and any trailing
// byte, is an error of the decoder's class.
func TestLayoutRoundTrip(t *testing.T) {
	in := sample{A: 7, B: 0xbeef, C: 1 << 30, D: 1<<63 + 5, Key: [4]byte{1, 2, 3, 4}, V: 300, N: 1 << 40,
		OK: true, Raw: []byte{0, 1}, S: "hello", List: []string{"a", "", "bc"}, Opt: []uint16{9, 10}}
	b := encode(&in)
	out, err := decode(b)
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: %+v, %v", out, err)
	}
	noTail := in
	noTail.Opt = nil
	tailAt := len(encode(&noTail))
	for k := 0; k < len(b); k++ {
		if _, err := decode(b[:k]); k != tailAt && !errors.Is(err, errTest) {
			t.Errorf("cut at %d of %d: %v", k, len(b), err)
		}
	}
	if _, err := decode(append(b, 0)); !errors.Is(err, errTest) {
		t.Errorf("trailing byte: %v", err)
	}
}

// TestDecodeRejects: out-of-range values are errors, not values.
func TestDecodeRejects(t *testing.T) {
	base := encode(&sample{})
	boolAt := 1 + 2 + 4 + 8 + 4 + 1 + 1
	for name, b := range map[string][]byte{
		"bool octet 2":   append(append(append([]byte(nil), base[:boolAt]...), 2), base[boolAt+1:]...),
		"lying count":    append(append([]byte(nil), base[:len(base)-1]...), 0xff, 0x01),
		"int overflow":   append(append([]byte(nil), base[:boolAt-1]...), append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, base[boolAt:]...)...),
		"empty opt tail": append(append([]byte(nil), base...), 0),
		"long uvarint":   append(append(append([]byte(nil), base[:boolAt-2]...), 0x80, 0x00), base[boolAt-1:]...),
	} {
		if _, err := decode(b); !errors.Is(err, errTest) {
			t.Errorf("%s: decoded, err %v", name, err)
		}
	}
}

// TestPrefix: a prefix is its address and length octets, and decoding
// rejects a length over 32 and host bits past the mask, so one prefix
// has one encoding.
func TestPrefix(t *testing.T) {
	in := netaddr.MustParsePrefix("10.128.0.0/9")
	enc := Encoder(nil)
	enc.Prefix(&in)
	if got := enc.Buf(); !bytes.Equal(got, []byte{10, 128, 0, 0, 9}) {
		t.Fatalf("encoding %x", got)
	}
	var out netaddr.Prefix
	dec := Decoder(enc.Buf(), errTest)
	dec.Prefix(&out)
	if err := dec.Finish(); err != nil || out != in {
		t.Fatalf("round trip: %s, %v", out, err)
	}
	for name, b := range map[string][]byte{
		"length 33": {10, 128, 0, 0, 33},
		"host bits": {10, 129, 0, 0, 9},
		"truncated": {10, 128, 0, 0},
	} {
		dec := Decoder(b, errTest)
		dec.Prefix(&out)
		if err := dec.Finish(); !errors.Is(err, errTest) {
			t.Errorf("%s: decoded %s, err %v", name, out, err)
		}
	}
}

package codec

import (
	"errors"
	"reflect"
	"testing"
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
	} {
		if _, err := decode(b); !errors.Is(err, errTest) {
			t.Errorf("%s: decoded, err %v", name, err)
		}
	}
}

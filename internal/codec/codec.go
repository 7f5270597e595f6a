// Package codec is the bounded binary codec discipline the wire formats
// share, written once. A layout is one function over a pass, C, and the
// same function both encodes and decodes: each primitive appends its
// field when the pass is an Encoder and reads it back into the field when
// the pass is a Decoder.
//
// Encoding only reads the value it encodes, so one value may be encoded
// by several goroutines at once. Decoding is strict: the first failure is
// sticky (every later read leaves its field alone, and the caller checks
// Err or Finish once), every read checks the bytes left before consuming
// them, a count is checked against the bytes left before anything is
// allocated, and Finish rejects trailing bytes. Malformed input is an
// error, never a panic, and every error wraps the class the decoder was
// made with.
//
// A pass is a small value. A layout reached through an interface method
// should take it by value and return it: a pointer passed through an
// interface escapes to the heap, an allocation on every pass.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"dice/internal/netaddr"
)

// C is one encoding or decoding pass.
type C struct {
	b     []byte // encoding: the output so far; decoding: the input not yet read
	dec   bool
	off   int // decoding: bytes consumed, for error messages
	err   error
	class error
}

// Encoder starts an encoding pass that appends to dst.
func Encoder(dst []byte) C { return C{b: dst} }

// Decoder starts a decoding pass over src. Every error it reports wraps
// class.
func Decoder(src []byte, class error) C { return C{b: src, dec: true, class: class} }

// Decoding reports whether the pass reads fields rather than writes them.
func (c *C) Decoding() bool { return c.dec }

// Buf returns the bytes encoded so far, or, decoding, the bytes not yet
// read.
func (c *C) Buf() []byte { return c.b }

// Err returns the first decoding error.
func (c *C) Err() error { return c.err }

// Fail records a decoding error unless one is already recorded. Encoding
// never fails: an encoder writes whatever it is given.
func (c *C) Fail(format string, args ...any) {
	if c.dec && c.err == nil {
		c.err = fmt.Errorf("%w: at offset %d: %s", c.class, c.off, fmt.Sprintf(format, args...))
	}
}

// Finish ends a decoding pass: a well-formed payload is consumed whole,
// so leftover bytes are an error.
func (c *C) Finish() error {
	if c.err == nil && len(c.b) != 0 {
		c.Fail("%d trailing bytes", len(c.b))
	}
	return c.err
}

// take consumes the next n input bytes, or records an error and returns
// nil when fewer remain.
func (c *C) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b) {
		c.Fail("need %d bytes, have %d", n, len(c.b))
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	c.off += n
	return out
}

// U8 is one octet.
func (c *C) U8(v *uint8) {
	if !c.dec {
		c.b = append(c.b, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// U16 is two big-endian octets.
func (c *C) U16(v *uint16) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint16(c.b, *v)
	} else if b := c.take(2); b != nil {
		*v = binary.BigEndian.Uint16(b)
	}
}

// U32 is four big-endian octets.
func (c *C) U32(v *uint32) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint32(c.b, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.BigEndian.Uint32(b)
	}
}

// U64 is eight big-endian octets.
func (c *C) U64(v *uint64) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint64(c.b, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.BigEndian.Uint64(b)
	}
}

// Fixed is len(b) raw octets: encoding appends b, decoding fills it.
func (c *C) Fixed(b []byte) {
	if !c.dec {
		c.b = append(c.b, b...)
	} else if in := c.take(len(b)); in != nil {
		copy(b, in)
	}
}

// Uvarint is an unsigned varint.
func (c *C) Uvarint(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	if c.err != nil {
		return
	}
	x, n := binary.Uvarint(c.b)
	if n <= 0 || n > 1 && c.b[n-1] == 0 {
		c.Fail("bad uvarint") // truncated, overflowing or not minimal
		return
	}
	c.b = c.b[n:]
	c.off += n
	*v = x
}

// Uint is a non-negative int as a uvarint. Encoding writes a negative
// value as 0 (the fields it carries are counters); decoding rejects a
// value that overflows int.
func (c *C) Uint(v *int) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(max(*v, 0)))
		return
	}
	var x uint64
	c.Uvarint(&x)
	if c.err == nil && x > math.MaxInt {
		c.Fail("uvarint %d overflows int", x)
	} else if c.err == nil {
		*v = int(x)
	}
}

// Bool is one octet, 0 or 1.
func (c *C) Bool(v *bool) {
	if !c.dec {
		var o uint8
		if *v {
			o = 1
		}
		c.b = append(c.b, o)
		return
	}
	if b := c.take(1); b != nil && b[0] > 1 {
		c.Fail("bad bool octet %d", b[0])
	} else if b != nil {
		*v = b[0] == 1
	}
}

// MaskLen is one prefix-length octet, 0..32.
func (c *C) MaskLen(n *int) {
	b := uint8(*n)
	c.U8(&b)
	if b > 32 {
		c.Fail("prefix length %d exceeds 32", b)
	} else if c.dec {
		*n = int(b)
	}
}

// Prefix is an IPv4 prefix as its 4 address octets and its length. The
// encoding is canonical, so host bits set beyond the mask are rejected.
func (c *C) Prefix(p *netaddr.Prefix) {
	addr, bits := p.Addr(), p.Bits()
	c.U32((*uint32)(&addr))
	c.MaskLen(&bits)
	if q := netaddr.PrefixFrom(addr, bits); q.Addr() != addr {
		c.Fail("prefix %s/%d has host bits set", addr, bits)
	} else if c.dec {
		*p = q
	}
}

// Count is a collection length. Decoding checks it against the bytes
// left, given that every element costs at least min bytes, so a count no
// payload could hold is rejected before anything is allocated.
func (c *C) Count(n *int, min int) {
	c.Uint(n)
	if c.dec && c.err == nil && *n > len(c.b)/min+1 {
		c.Fail("count %d exceeds remaining payload", *n)
		*n = 0
	}
}

// Bytes is a length-prefixed byte string. Decoding copies it out of the
// input, so it outlives the buffer it arrived in; an empty one decodes as
// nil.
func (c *C) Bytes(v *[]byte) {
	if !c.dec {
		c.b = append(binary.AppendUvarint(c.b, uint64(len(*v))), *v...)
		return
	}
	var n int
	c.Uint(&n)
	b := c.take(n)
	if c.err != nil {
		return
	}
	*v = nil
	if n > 0 {
		*v = make([]byte, n)
		copy(*v, b)
	}
}

// View is Bytes whose decoding aliases the input instead of copying it:
// the value is valid only while the buffer it was read from stays
// unchanged. Its encoding, and every decoding error, are Bytes'.
func (c *C) View(v *[]byte) {
	if !c.dec {
		c.Bytes(v)
		return
	}
	var n int
	c.Uint(&n)
	b := c.take(n)
	if c.err != nil {
		return
	}
	*v = nil
	if n > 0 {
		*v = b[:n:n]
	}
}

// Str is a length-prefixed string.
func (c *C) Str(v *string) {
	if !c.dec {
		c.b = append(binary.AppendUvarint(c.b, uint64(len(*v))), *v...)
		return
	}
	var n int
	c.Uint(&n)
	if b := c.take(n); c.err == nil {
		*v = string(b)
	}
}

// List is a counted sequence with elem as the layout of one element.
// Decoding allocates the slice only after Count has bounded it, and an
// empty list decodes as nil.
func List[T any](c *C, s *[]T, min int, elem func(*T)) {
	n := len(*s)
	c.Count(&n, min)
	if c.dec {
		if c.err != nil {
			return
		}
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

// Tail is a group of fields sent only when present reports them in use.
// Decoding reads the group only when bytes remain, and since an encoder
// never sends an unused group, one that decodes as unused is an error.
func (c *C) Tail(present func() bool, what string, fields func()) {
	if !c.dec {
		if present() {
			fields()
		}
		return
	}
	if c.err != nil || len(c.b) == 0 {
		return
	}
	fields()
	if c.err == nil && !present() {
		c.Fail("empty %s tail", what)
	}
}

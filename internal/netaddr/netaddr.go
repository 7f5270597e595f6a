// Package netaddr provides IPv4 address and prefix types used throughout
// the BGP substrate. Addresses are represented as host-order uint32 values
// so that prefix containment, masking and trie keying are cheap bit
// operations; everything is a value type and safe to copy.
//
// The package is deliberately self-contained (no dependency on net or
// net/netip) so the concolic engine can reason about the exact arithmetic
// the router performs on addresses.
package netaddr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// AddrFrom4 assembles an Addr from four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 address such as "192.0.2.1".
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netaddr: invalid IPv4 address %q", s)
	}
	var v uint32
	for _, p := range parts {
		if p == "" || len(p) > 3 {
			return 0, fmt.Errorf("netaddr: invalid IPv4 address %q", s)
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("netaddr: invalid IPv4 address %q", s)
		}
		// Reject leading zeros ("01") to match net.ParseIP strictness.
		if len(p) > 1 && p[0] == '0' {
			return 0, fmt.Errorf("netaddr: invalid IPv4 address %q", s)
		}
		v = v<<8 | uint32(n)
	}
	return Addr(v), nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Octets returns the four dotted-quad octets of a.
func (a Addr) Octets() (byte, byte, byte, byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// String renders a in dotted-quad form.
func (a Addr) String() string {
	var buf [15]byte
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends a's dotted-quad form to dst.
func (a Addr) AppendTo(dst []byte) []byte {
	b0, b1, b2, b3 := a.Octets()
	dst = strconv.AppendUint(dst, uint64(b0), 10)
	dst = strconv.AppendUint(append(dst, '.'), uint64(b1), 10)
	dst = strconv.AppendUint(append(dst, '.'), uint64(b2), 10)
	return strconv.AppendUint(append(dst, '.'), uint64(b3), 10)
}

// Mask returns the network mask with the given prefix length (0..32).
func Mask(length int) Addr {
	if length <= 0 {
		return 0
	}
	if length >= 32 {
		return 0xffffffff
	}
	return Addr(^uint32(0) << (32 - uint(length)))
}

// Prefix is an IPv4 CIDR prefix: a network address plus a mask length.
// The zero Prefix is 0.0.0.0/0 (the default route).
type Prefix struct {
	addr Addr
	bits uint8
}

// ErrInvalidPrefix reports a malformed or non-canonical prefix.
var ErrInvalidPrefix = errors.New("netaddr: invalid prefix")

// PrefixFrom returns the prefix addr/bits with host bits zeroed
// (canonical form). bits outside [0,32] are clamped.
func PrefixFrom(addr Addr, bits int) Prefix {
	if bits < 0 {
		bits = 0
	}
	if bits > 32 {
		bits = 32
	}
	return Prefix{addr: addr & Mask(bits), bits: uint8(bits)}
}

// ParsePrefix parses a CIDR string such as "203.0.113.0/24". Host bits
// set beyond the mask are rejected (the prefix must be canonical).
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: %q (missing '/')", ErrInvalidPrefix, s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %q: %v", ErrInvalidPrefix, s, err)
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("%w: %q (bad length)", ErrInvalidPrefix, s)
	}
	if addr&^Mask(bits) != 0 {
		return Prefix{}, fmt.Errorf("%w: %q (host bits set)", ErrInvalidPrefix, s)
	}
	return Prefix{addr: addr, bits: uint8(bits)}, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr returns the network address of p.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the mask length of p.
func (p Prefix) Bits() int { return int(p.bits) }

// String renders p in CIDR notation.
func (p Prefix) String() string {
	var buf [18]byte
	return string(p.AppendTo(buf[:0]))
}

// AppendTo appends p's CIDR notation to dst.
func (p Prefix) AppendTo(dst []byte) []byte {
	return strconv.AppendUint(append(p.addr.AppendTo(dst), '/'), uint64(p.bits), 10)
}

// Contains reports whether address a is inside prefix p.
func (p Prefix) Contains(a Addr) bool {
	return a&Mask(int(p.bits)) == p.addr
}

// Covers reports whether p covers (is equal to or less specific than) q:
// every address in q is also in p.
func (p Prefix) Covers(q Prefix) bool {
	return p.bits <= q.bits && q.addr&Mask(int(p.bits)) == p.addr
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Covers(q) || q.Covers(p)
}

// Compare orders prefixes first by address, then by mask length.
// It returns -1, 0 or +1.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.addr < q.addr:
		return -1
	case p.addr > q.addr:
		return 1
	case p.bits < q.bits:
		return -1
	case p.bits > q.bits:
		return 1
	}
	return 0
}

// Bit returns the i-th most significant bit (0-indexed) of the network
// address, used for radix-trie descent. i must be in [0,32).
func (p Prefix) Bit(i int) int {
	return int(p.addr>>(31-uint(i))) & 1
}

// IsValidLen reports whether bits is a legal IPv4 prefix length.
func IsValidLen(bits int) bool { return bits >= 0 && bits <= 32 }

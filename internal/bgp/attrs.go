package bgp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"dice/internal/codec"
	"dice/internal/netaddr"
)

// Path attribute type codes (RFC 4271 §5.1, RFC 1997 for COMMUNITY).
const (
	AttrOrigin          = 1
	AttrASPath          = 2
	AttrNextHop         = 3
	AttrMED             = 4
	AttrLocalPref       = 5
	AttrAtomicAggregate = 6
	AttrAggregator      = 7
	AttrCommunity       = 8
)

// Attribute flag bits (RFC 4271 §4.3).
const (
	FlagOptional   = 0x80
	FlagTransitive = 0x40
	FlagPartial    = 0x20
	FlagExtLen     = 0x10
)

// Origin codes (RFC 4271 §5.1.1).
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// OriginString renders an origin code the way BIRD's CLI does.
func OriginString(o uint8) string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "Incomplete"
	}
	return fmt.Sprintf("origin(%d)", o)
}

// AS path segment types (RFC 4271 §5.1.2).
const (
	ASSet      = 1
	ASSequence = 2
)

// ASPathSegment is one segment of an AS_PATH.
type ASPathSegment struct {
	Type uint8 // ASSet or ASSequence
	ASNs []uint16
}

// ASPath is an ordered list of segments.
type ASPath []ASPathSegment

// Length returns the AS path length used by the decision process
// (RFC 4271 §9.1.2.2: an AS_SET counts as 1 regardless of size).
func (p ASPath) Length() int {
	n := 0
	for _, seg := range p {
		if seg.Type == ASSet {
			n++
		} else {
			n += len(seg.ASNs)
		}
	}
	return n
}

// OriginAS returns the rightmost AS in the path — the AS that originated
// the route. Returns 0 for an empty path (locally originated).
func (p ASPath) OriginAS() uint16 {
	if len(p) == 0 {
		return 0
	}
	last := p[len(p)-1]
	if len(last.ASNs) == 0 {
		return 0
	}
	if last.Type == ASSet {
		// Any member may be the originator; pick the smallest for
		// determinism (consistent with how leak detection treats sets).
		min := last.ASNs[0]
		for _, as := range last.ASNs {
			if as < min {
				min = as
			}
		}
		return min
	}
	return last.ASNs[len(last.ASNs)-1]
}

// FirstAS returns the leftmost AS — the neighbor that sent the route.
func (p ASPath) FirstAS() uint16 {
	if len(p) == 0 || len(p[0].ASNs) == 0 {
		return 0
	}
	return p[0].ASNs[0]
}

// Contains reports whether as appears anywhere in the path (loop check,
// RFC 4271 §9.1.2).
func (p ASPath) Contains(as uint16) bool {
	for _, seg := range p {
		for _, a := range seg.ASNs {
			if a == as {
				return true
			}
		}
	}
	return false
}

// Prepend returns a copy of p with as prepended to the leading
// AS_SEQUENCE (creating one if needed), as done on eBGP export.
func (p ASPath) Prepend(as uint16) ASPath {
	if len(p) > 0 && p[0].Type == ASSequence && len(p[0].ASNs) < 255 {
		out := make(ASPath, len(p))
		copy(out, p)
		seq := make([]uint16, 0, len(p[0].ASNs)+1)
		seq = append(seq, as)
		seq = append(seq, p[0].ASNs...)
		out[0] = ASPathSegment{Type: ASSequence, ASNs: seq}
		return out
	}
	out := make(ASPath, 0, len(p)+1)
	out = append(out, ASPathSegment{Type: ASSequence, ASNs: []uint16{as}})
	return append(out, p...)
}

// Clone returns a deep copy of the path.
func (p ASPath) Clone() ASPath {
	out := make(ASPath, len(p))
	for i, seg := range p {
		out[i] = ASPathSegment{Type: seg.Type, ASNs: append([]uint16(nil), seg.ASNs...)}
	}
	return out
}

// String renders the path in the conventional "65001 65002 {65003,65004}"
// form.
func (p ASPath) String() string {
	var b strings.Builder
	for i, seg := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		if seg.Type == ASSet {
			b.WriteByte('{')
			for j, as := range seg.ASNs {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", as)
			}
			b.WriteByte('}')
		} else {
			for j, as := range seg.ASNs {
				if j > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%d", as)
			}
		}
	}
	return b.String()
}

// Aggregator is the AGGREGATOR attribute value (RFC 4271 §5.1.7).
type Aggregator struct {
	AS     uint16
	Router netaddr.Addr
}

// RawAttr preserves an unrecognized optional attribute for transit
// (RFC 4271 §5: unrecognized transitive attributes are passed along with
// the Partial bit set).
type RawAttr struct {
	Flags uint8
	Code  uint8
	Value []byte
}

// Attrs is the decoded path attribute set of an UPDATE.
type Attrs struct {
	HasOrigin bool
	Origin    uint8

	ASPath ASPath

	HasNextHop bool
	NextHop    netaddr.Addr

	HasMED bool
	MED    uint32

	HasLocalPref bool
	LocalPref    uint32

	AtomicAggregate bool
	Aggregator      *Aggregator

	Communities []uint32

	Unknown []RawAttr
}

// Clone returns a deep copy.
func (a Attrs) Clone() Attrs {
	out := a
	out.ASPath = a.ASPath.Clone()
	if a.Aggregator != nil {
		ag := *a.Aggregator
		out.Aggregator = &ag
	}
	out.Communities = append([]uint32(nil), a.Communities...)
	out.Unknown = make([]RawAttr, len(a.Unknown))
	for i, u := range a.Unknown {
		out.Unknown[i] = RawAttr{Flags: u.Flags, Code: u.Code, Value: append([]byte(nil), u.Value...)}
	}
	return out
}

// appendAttrHeader writes an attribute's flags, code and the length of
// an n-octet value, in the extended form when n needs it.
func appendAttrHeader(dst []byte, flags, code uint8, n int) []byte {
	if n > 255 {
		flags |= FlagExtLen
	}
	dst = append(dst, flags, code)
	if flags&FlagExtLen != 0 {
		return binary.BigEndian.AppendUint16(dst, uint16(n))
	}
	return append(dst, uint8(n))
}

// appendAttr writes one attribute with correct flags and length form.
func appendAttr(dst []byte, flags, code uint8, val []byte) []byte {
	return append(appendAttrHeader(dst, flags, code, len(val)), val...)
}

// sortOnStack bounds the community lists encode sorts in a stack array;
// a longer unsorted list is sorted in a heap copy.
const sortOnStack = 32

// encode appends the attribute set to dst in canonical (ascending type
// code) order, every value written in place: the AS_PATH length is
// computed before its segments are written, and communities go out in
// ascending order without copying a list that is already sorted. With
// prepend set, the AS_PATH goes out with lead prepended by
// ASPath.Prepend's rule: into the leading AS_SEQUENCE while it has room,
// else in a one-AS segment of its own.
func (a *Attrs) encode(dst []byte, lead uint16, prepend bool) ([]byte, error) {
	if a.HasOrigin {
		if a.Origin > OriginIncomplete {
			return nil, protoErr(ErrCodeUpdateMessage, ErrSubInvalidOrigin, "origin %d", a.Origin)
		}
		dst = append(appendAttrHeader(dst, FlagTransitive, AttrOrigin, 1), a.Origin)
	}
	if path := a.ASPath; path != nil || prepend {
		merge := prepend && len(path) > 0 && path[0].Type == ASSequence && len(path[0].ASNs) < 255
		n := 0
		if prepend && !merge {
			n = 4 // the one-AS segment
		}
		for i, seg := range path {
			k := len(seg.ASNs)
			if merge && i == 0 {
				k++
			}
			if k == 0 || k > 255 {
				return nil, protoErr(ErrCodeUpdateMessage, ErrSubMalformedASPath, "segment with %d ASNs", k)
			}
			n += 2 + 2*k
		}
		dst = appendAttrHeader(dst, FlagTransitive, AttrASPath, n)
		if prepend && !merge {
			dst = binary.BigEndian.AppendUint16(append(dst, ASSequence, 1), lead)
		}
		for i, seg := range path {
			if merge && i == 0 {
				dst = binary.BigEndian.AppendUint16(append(dst, ASSequence, uint8(len(seg.ASNs)+1)), lead)
			} else {
				dst = append(dst, seg.Type, uint8(len(seg.ASNs)))
			}
			for _, as := range seg.ASNs {
				dst = binary.BigEndian.AppendUint16(dst, as)
			}
		}
	}
	if a.HasNextHop {
		dst = binary.BigEndian.AppendUint32(appendAttrHeader(dst, FlagTransitive, AttrNextHop, 4), uint32(a.NextHop))
	}
	if a.HasMED {
		dst = binary.BigEndian.AppendUint32(appendAttrHeader(dst, FlagOptional, AttrMED, 4), a.MED)
	}
	if a.HasLocalPref {
		dst = binary.BigEndian.AppendUint32(appendAttrHeader(dst, FlagTransitive, AttrLocalPref, 4), a.LocalPref)
	}
	if a.AtomicAggregate {
		dst = appendAttrHeader(dst, FlagTransitive, AttrAtomicAggregate, 0)
	}
	if a.Aggregator != nil {
		dst = appendAttrHeader(dst, FlagOptional|FlagTransitive, AttrAggregator, 6)
		dst = binary.BigEndian.AppendUint16(dst, a.Aggregator.AS)
		dst = binary.BigEndian.AppendUint32(dst, uint32(a.Aggregator.Router))
	}
	if comms := a.Communities; len(comms) > 0 {
		if !slices.IsSorted(comms) {
			var buf [sortOnStack]uint32
			if len(comms) <= len(buf) {
				comms = buf[:copy(buf[:], comms)]
			} else {
				comms = slices.Clone(comms)
			}
			slices.Sort(comms)
		}
		dst = appendAttrHeader(dst, FlagOptional|FlagTransitive, AttrCommunity, 4*len(comms))
		for _, c := range comms {
			dst = binary.BigEndian.AppendUint32(dst, c)
		}
	}
	for _, u := range a.Unknown {
		dst = appendAttr(dst, u.Flags, u.Code, u.Value)
	}
	return dst, nil
}

// decodeAttrs parses the path attribute block of an UPDATE with full
// RFC 4271 §6.3 validation: flag bits, length consistency with the
// attribute type, and duplicate detection.
func decodeAttrs(b []byte) (Attrs, error) {
	var a Attrs
	var seen [4]uint64 // one bit per attribute type code
	for len(b) > 0 {
		if len(b) < 3 {
			return a, protoErr(ErrCodeUpdateMessage, ErrSubMalformedAttrList, "truncated attribute header")
		}
		flags, code := b[0], b[1]
		var alen int
		var hdr int
		if flags&FlagExtLen != 0 {
			if len(b) < 4 {
				return a, protoErr(ErrCodeUpdateMessage, ErrSubMalformedAttrList, "truncated extended length")
			}
			alen = int(binary.BigEndian.Uint16(b[2:4]))
			hdr = 4
		} else {
			alen = int(b[2])
			hdr = 3
		}
		if len(b) < hdr+alen {
			return a, protoErr(ErrCodeUpdateMessage, ErrSubAttrLength, "attribute %d overruns block", code)
		}
		val := b[hdr : hdr+alen]
		b = b[hdr+alen:]

		if seen[code/64]&(1<<(code%64)) != 0 {
			return a, protoErr(ErrCodeUpdateMessage, ErrSubMalformedAttrList, "duplicate attribute %d", code)
		}
		seen[code/64] |= 1 << (code % 64)

		switch code {
		case AttrOrigin:
			if err := checkFlags(flags, FlagTransitive, code); err != nil {
				return a, err
			}
			if len(val) != 1 {
				return a, protoErr(ErrCodeUpdateMessage, ErrSubAttrLength, "ORIGIN length %d", len(val))
			}
			if val[0] > OriginIncomplete {
				return a, protoErr(ErrCodeUpdateMessage, ErrSubInvalidOrigin, "origin value %d", val[0])
			}
			a.HasOrigin, a.Origin = true, val[0]
		case AttrASPath:
			if err := checkFlags(flags, FlagTransitive, code); err != nil {
				return a, err
			}
			path, err := decodeASPath(val)
			if err != nil {
				return a, err
			}
			a.ASPath = path
		case AttrNextHop:
			if err := checkFlags(flags, FlagTransitive, code); err != nil {
				return a, err
			}
			if len(val) != 4 {
				return a, protoErr(ErrCodeUpdateMessage, ErrSubAttrLength, "NEXT_HOP length %d", len(val))
			}
			nh := netaddr.Addr(binary.BigEndian.Uint32(val))
			if nh == 0 || nh == 0xffffffff {
				return a, protoErr(ErrCodeUpdateMessage, ErrSubInvalidNextHop, "next hop %s", nh)
			}
			a.HasNextHop, a.NextHop = true, nh
		case AttrMED:
			if err := checkFlags(flags, FlagOptional, code); err != nil {
				return a, err
			}
			if len(val) != 4 {
				return a, protoErr(ErrCodeUpdateMessage, ErrSubAttrLength, "MED length %d", len(val))
			}
			a.HasMED, a.MED = true, binary.BigEndian.Uint32(val)
		case AttrLocalPref:
			if err := checkFlags(flags, FlagTransitive, code); err != nil {
				return a, err
			}
			if len(val) != 4 {
				return a, protoErr(ErrCodeUpdateMessage, ErrSubAttrLength, "LOCAL_PREF length %d", len(val))
			}
			a.HasLocalPref, a.LocalPref = true, binary.BigEndian.Uint32(val)
		case AttrAtomicAggregate:
			if err := checkFlags(flags, FlagTransitive, code); err != nil {
				return a, err
			}
			if len(val) != 0 {
				return a, protoErr(ErrCodeUpdateMessage, ErrSubAttrLength, "ATOMIC_AGGREGATE length %d", len(val))
			}
			a.AtomicAggregate = true
		case AttrAggregator:
			if err := checkFlags(flags, FlagOptional|FlagTransitive, code); err != nil {
				return a, err
			}
			if len(val) != 6 {
				return a, protoErr(ErrCodeUpdateMessage, ErrSubAttrLength, "AGGREGATOR length %d", len(val))
			}
			a.Aggregator = &Aggregator{
				AS:     binary.BigEndian.Uint16(val[0:2]),
				Router: netaddr.Addr(binary.BigEndian.Uint32(val[2:6])),
			}
		case AttrCommunity:
			if err := checkFlags(flags, FlagOptional|FlagTransitive, code); err != nil {
				return a, err
			}
			if len(val)%4 != 0 {
				return a, protoErr(ErrCodeUpdateMessage, ErrSubAttrLength, "COMMUNITY length %d", len(val))
			}
			if len(val) > 0 {
				a.Communities = make([]uint32, len(val)/4)
				for i := range a.Communities {
					a.Communities[i] = binary.BigEndian.Uint32(val[4*i:])
				}
			}
		default:
			if flags&FlagOptional == 0 {
				return a, protoErr(ErrCodeUpdateMessage, ErrSubUnrecognizedWellKnown, "well-known attribute %d", code)
			}
			if flags&FlagTransitive != 0 {
				// Pass along with Partial set (RFC 4271 §5).
				cp := make([]byte, len(val))
				copy(cp, val)
				a.Unknown = append(a.Unknown, RawAttr{Flags: flags | FlagPartial, Code: code, Value: cp})
			}
			// Unrecognized non-transitive optional attributes are quietly
			// ignored.
		}
	}
	return a, nil
}

// checkMandatory is RFC 4271 §6.3's missing-attribute rule: attributes
// that announce a route carry ORIGIN, NEXT_HOP and AS_PATH.
func (a *Attrs) checkMandatory() error {
	switch {
	case !a.HasOrigin:
		return protoErr(ErrCodeUpdateMessage, ErrSubMissingWellKnown, "missing ORIGIN")
	case !a.HasNextHop:
		return protoErr(ErrCodeUpdateMessage, ErrSubMissingWellKnown, "missing NEXT_HOP")
	case a.ASPath == nil:
		return protoErr(ErrCodeUpdateMessage, ErrSubMissingWellKnown, "missing AS_PATH")
	}
	return nil
}

// AttrBlock is an announced route's attributes in a stored format's codec
// layout (router checkpoint, replay trace): the attribute block exactly as
// an UPDATE carries it, behind a uvarint length. Decoding applies the
// UPDATE decoder's validation and the mandatory-attribute rule, and
// accepts only the block encoding writes, so a decoded record re-encodes
// byte-identically. Encoding returns the error of attributes that have
// no encoding, and writes nothing; decoding records its errors on c.
func AttrBlock(c *codec.C, a *Attrs) error {
	if !c.Decoding() {
		b, err := a.encode(make([]byte, 0, 64), 0, false)
		if err == nil {
			c.Bytes(&b)
		}
		return err
	}
	var b []byte
	c.Bytes(&b) // after an earlier error b is empty, and fails below
	got, err := decodeAttrs(b)
	if err == nil {
		err = got.checkMandatory()
	}
	if err != nil {
		c.Fail("attribute block: %v", err)
	} else if again, _ := got.encode(nil, 0, false); !bytes.Equal(again, b) {
		c.Fail("attribute block is not in canonical form")
	} else {
		*a = got
	}
	return nil
}

// checkFlags validates the Optional/Transitive bits against the expected
// category for a known attribute (RFC 4271 §6.3, Attribute Flags Error).
func checkFlags(flags, want uint8, code uint8) error {
	if flags&(FlagOptional|FlagTransitive) != want {
		return protoErr(ErrCodeUpdateMessage, ErrSubAttrFlags, "attribute %d flags %#x want %#x", code, flags&0xc0, want)
	}
	return nil
}

func decodeASPath(val []byte) (ASPath, error) {
	// An empty AS_PATH (locally originated routes) decodes to an empty,
	// non-nil path so encode/decode round-trips preserve presence.
	p := ASPath{}
	for len(val) > 0 {
		if len(val) < 2 {
			return nil, protoErr(ErrCodeUpdateMessage, ErrSubMalformedASPath, "truncated segment header")
		}
		segType, n := val[0], int(val[1])
		if segType != ASSet && segType != ASSequence {
			return nil, protoErr(ErrCodeUpdateMessage, ErrSubMalformedASPath, "segment type %d", segType)
		}
		if n == 0 {
			return nil, protoErr(ErrCodeUpdateMessage, ErrSubMalformedASPath, "empty segment")
		}
		if len(val) < 2+2*n {
			return nil, protoErr(ErrCodeUpdateMessage, ErrSubMalformedASPath, "truncated segment")
		}
		seg := ASPathSegment{Type: segType, ASNs: make([]uint16, n)}
		for i := 0; i < n; i++ {
			seg.ASNs[i] = binary.BigEndian.Uint16(val[2+2*i : 4+2*i])
		}
		p = append(p, seg)
		val = val[2+2*n:]
	}
	return p, nil
}

// Well-known communities (RFC 1997). A route carrying NO_EXPORT must not
// be advertised beyond the receiving AS — the policy boundary the
// federated route-leak oracle checks.
const (
	CommunityNoExport    = 0xFFFFFF01
	CommunityNoAdvertise = 0xFFFFFF02
	CommunityNoExportSub = 0xFFFFFF03
)

// Community helpers: communities are conventionally rendered AS:value.

// MakeCommunity packs an (AS, value) pair into a COMMUNITY word.
func MakeCommunity(as, value uint16) uint32 {
	return uint32(as)<<16 | uint32(value)
}

// HasCommunity reports whether c is present in the set.
func (a Attrs) HasCommunity(c uint32) bool {
	for _, x := range a.Communities {
		if x == c {
			return true
		}
	}
	return false
}

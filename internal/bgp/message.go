// Package bgp implements the BGP-4 protocol elements of RFC 4271 the DiCE
// case study needs: the four message types with full wire encoding and
// validation, path attributes, and the session finite-state machine. It is
// the Go stand-in for BIRD's BGP implementation.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"dice/internal/concolic"
	"dice/internal/netaddr"
)

// Message type codes (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// Header and message size limits (RFC 4271 §4.1).
const (
	HeaderLen = 19
	MaxMsgLen = 4096
)

// Notification error codes (RFC 4271 §4.5).
const (
	ErrCodeMessageHeader = 1
	ErrCodeOpenMessage   = 2
	ErrCodeUpdateMessage = 3
	ErrCodeHoldTimer     = 4
	ErrCodeFSM           = 5
	ErrCodeCease         = 6
)

// UPDATE message error subcodes (RFC 4271 §6.3).
const (
	ErrSubMalformedAttrList     = 1
	ErrSubUnrecognizedWellKnown = 2
	ErrSubMissingWellKnown      = 3
	ErrSubAttrFlags             = 4
	ErrSubAttrLength            = 5
	ErrSubInvalidOrigin         = 6
	ErrSubInvalidNextHop        = 8
	ErrSubOptionalAttr          = 9
	ErrSubInvalidNetwork        = 10
	ErrSubMalformedASPath       = 11
)

// Error is a protocol error that maps onto a NOTIFICATION.
type Error struct {
	Code    uint8
	Subcode uint8
	Msg     string
}

func (e *Error) Error() string {
	return fmt.Sprintf("bgp: code %d subcode %d: %s", e.Code, e.Subcode, e.Msg)
}

func protoErr(code, subcode uint8, format string, args ...any) error {
	return &Error{Code: code, Subcode: subcode, Msg: fmt.Sprintf(format, args...)}
}

// Message is any BGP message body.
type Message interface {
	// Type returns the message type code.
	Type() uint8
	// encodeBody appends the body (everything after the common header).
	encodeBody(dst []byte) ([]byte, error)
}

// Marker is the all-ones 16-byte header marker (RFC 4271 §4.1).
var marker = [16]byte{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

// Encode serializes a full message including the header.
func Encode(m Message) ([]byte, error) {
	if u, ok := m.(*Update); ok {
		return EncodeUpdate(u)
	}
	buf, err := m.encodeBody(header(m.Type(), 64))
	return finish(buf, err)
}

// EncodeUpdate is Encode for an UPDATE. It keeps nothing of u, so an
// Update built only to be encoded costs no allocation of its own.
func EncodeUpdate(u *Update) ([]byte, error) {
	buf, err := u.encode(header(MsgUpdate, 96), 0, false)
	return finish(buf, err)
}

// EncodeUpdatePrepend is EncodeUpdate of u with as prepended to its
// AS_PATH by ASPath.Prepend's rule, as an eBGP export sends it. The
// encoder writes as in front of the path: no prepended copy is built.
func EncodeUpdatePrepend(u *Update, as uint16) ([]byte, error) {
	buf, err := u.encode(header(MsgUpdate, 96), as, true)
	return finish(buf, err)
}

// header starts a message of type typ in a buffer of capacity size.
func header(typ uint8, size int) []byte {
	buf := make([]byte, HeaderLen, size)
	copy(buf, marker[:])
	buf[18] = typ
	return buf
}

// finish checks an encoded message's length and writes it into the
// header.
func finish(buf []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if len(buf) > MaxMsgLen {
		return nil, protoErr(ErrCodeMessageHeader, 1, "message length %d exceeds %d", len(buf), MaxMsgLen)
	}
	binary.BigEndian.PutUint16(buf[16:18], uint16(len(buf)))
	return buf, nil
}

// Decode parses one complete message from wire bytes. It validates the
// header per RFC 4271 §6.1 and the body per the per-type rules.
func Decode(wire []byte) (Message, error) { return decode(wire, nil) }

// decode is Decode, with an UPDATE decoded through dec when there is one
// (Decoder.update).
func decode(wire []byte, dec *Decoder) (Message, error) {
	if len(wire) < HeaderLen {
		return nil, protoErr(ErrCodeMessageHeader, 2, "short message: %d bytes", len(wire))
	}
	for i := 0; i < 16; i++ {
		if wire[i] != 0xff {
			return nil, protoErr(ErrCodeMessageHeader, 1, "connection not synchronized (bad marker)")
		}
	}
	length := int(binary.BigEndian.Uint16(wire[16:18]))
	if length < HeaderLen || length > MaxMsgLen || length != len(wire) {
		return nil, protoErr(ErrCodeMessageHeader, 2, "bad message length %d (have %d bytes)", length, len(wire))
	}
	body := wire[HeaderLen:length]
	switch wire[18] {
	case MsgOpen:
		return decodeOpen(body)
	case MsgUpdate:
		if dec != nil {
			return dec.update(body)
		}
		u := &Update{}
		if err := u.decode(body, nil); err != nil {
			return nil, err
		}
		return u, nil
	case MsgNotification:
		return decodeNotification(body)
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, protoErr(ErrCodeMessageHeader, 2, "keepalive with body")
		}
		return &Keepalive{}, nil
	default:
		return nil, protoErr(ErrCodeMessageHeader, 3, "bad message type %d", wire[18])
	}
}

// Open is the OPEN message (RFC 4271 §4.2).
type Open struct {
	Version  uint8
	AS       uint16
	HoldTime uint16
	RouterID netaddr.Addr
	// OptParams carries raw optional parameters (type, value).
	OptParams []OptParam
}

// OptParam is an OPEN optional parameter.
type OptParam struct {
	Type  uint8
	Value []byte
}

// Type implements Message.
func (*Open) Type() uint8 { return MsgOpen }

func (o *Open) encodeBody(dst []byte) ([]byte, error) {
	dst = append(dst, o.Version)
	dst = binary.BigEndian.AppendUint16(dst, o.AS)
	dst = binary.BigEndian.AppendUint16(dst, o.HoldTime)
	dst = binary.BigEndian.AppendUint32(dst, uint32(o.RouterID))
	var params []byte
	for _, p := range o.OptParams {
		if len(p.Value) > 255 {
			return nil, protoErr(ErrCodeOpenMessage, 0, "optional parameter too long")
		}
		params = append(params, p.Type, uint8(len(p.Value)))
		params = append(params, p.Value...)
	}
	if len(params) > 255 {
		return nil, protoErr(ErrCodeOpenMessage, 0, "optional parameters too long")
	}
	dst = append(dst, uint8(len(params)))
	dst = append(dst, params...)
	return dst, nil
}

func decodeOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, protoErr(ErrCodeMessageHeader, 2, "short OPEN body: %d", len(body))
	}
	o := &Open{
		Version:  body[0],
		AS:       binary.BigEndian.Uint16(body[1:3]),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		RouterID: netaddr.Addr(binary.BigEndian.Uint32(body[5:9])),
	}
	if err := o.header().Check(concolic.ConcreteBrancher{}); err != nil {
		return nil, err
	}
	optLen := int(body[9])
	rest := body[10:]
	if optLen != len(rest) {
		return nil, protoErr(ErrCodeOpenMessage, 0, "optional parameter length mismatch")
	}
	for len(rest) > 0 {
		if len(rest) < 2 {
			return nil, protoErr(ErrCodeOpenMessage, 0, "truncated optional parameter")
		}
		t, l := rest[0], int(rest[1])
		if len(rest) < 2+l {
			return nil, protoErr(ErrCodeOpenMessage, 0, "truncated optional parameter value")
		}
		val := make([]byte, l)
		copy(val, rest[2:2+l])
		o.OptParams = append(o.OptParams, OptParam{Type: t, Value: val})
		rest = rest[2+l:]
	}
	return o, nil
}

// OpenHeader is an OPEN's fixed-size fields lifted to concolic values:
// concrete when a speaker receives a message, the run's symbolic inputs
// when the "open" scenario explores one. RFC 4271 §6.2's OPEN checks are
// written once, over it, and report every conditional through a Brancher,
// so the live session and exploration run the same code.
type OpenHeader struct {
	Version, AS, HoldTime, RouterID concolic.Value
}

// header lifts o's fixed-size fields to concrete values.
func (o *Open) header() OpenHeader {
	return OpenHeader{
		Version:  concolic.Concrete(uint64(o.Version), 8),
		AS:       concolic.Concrete(uint64(o.AS), 16),
		HoldTime: concolic.Concrete(uint64(o.HoldTime), 16),
		RouterID: concolic.Concrete(uint64(uint32(o.RouterID)), 32),
	}
}

// Check applies the checks a speaker makes while decoding an OPEN, in
// order: version, hold time, BGP identifier.
func (h OpenHeader) Check(br concolic.Brancher) error {
	if br.Branch(concolic.Ne(h.Version, concolic.Concrete(4, 8))) {
		return protoErr(ErrCodeOpenMessage, 1, "unsupported version %d", h.Version.C)
	}
	if br.Branch(concolic.BoolOr(
		concolic.Eq(h.HoldTime, concolic.Concrete(1, 16)),
		concolic.Eq(h.HoldTime, concolic.Concrete(2, 16)))) {
		return protoErr(ErrCodeOpenMessage, 6, "unacceptable hold time %d", h.HoldTime.C)
	}
	if br.Branch(concolic.Eq(h.RouterID, concolic.Concrete(0, 32))) {
		return protoErr(ErrCodeOpenMessage, 3, "bad BGP identifier")
	}
	return nil
}

// CheckPeerAS is the check a session makes once the OPEN has decoded:
// its AS must be the configured peer AS want (0 accepts any).
func (h OpenHeader) CheckPeerAS(want uint16, br concolic.Brancher) error {
	if want != 0 && br.Branch(concolic.Ne(h.AS, concolic.Concrete(uint64(want), 16))) {
		return protoErr(ErrCodeOpenMessage, 2, "bad peer AS %d, want %d", h.AS.C, want)
	}
	return nil
}

// Keepalive is the KEEPALIVE message (header only, RFC 4271 §4.4).
type Keepalive struct{}

// Type implements Message.
func (*Keepalive) Type() uint8 { return MsgKeepalive }

func (*Keepalive) encodeBody(dst []byte) ([]byte, error) { return dst, nil }

// Notification is the NOTIFICATION message (RFC 4271 §4.5).
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Type implements Message.
func (*Notification) Type() uint8 { return MsgNotification }

func (n *Notification) encodeBody(dst []byte) ([]byte, error) {
	dst = append(dst, n.Code, n.Subcode)
	return append(dst, n.Data...), nil
}

func decodeNotification(body []byte) (*Notification, error) {
	if len(body) < 2 {
		return nil, protoErr(ErrCodeMessageHeader, 2, "short NOTIFICATION body")
	}
	data := make([]byte, len(body)-2)
	copy(data, body[2:])
	return &Notification{Code: body[0], Subcode: body[1], Data: data}, nil
}

// Update is the UPDATE message (RFC 4271 §4.3): withdrawn routes, path
// attributes and announced NLRI.
type Update struct {
	Withdrawn []netaddr.Prefix
	Attrs     Attrs
	NLRI      []netaddr.Prefix
}

// Type implements Message.
func (*Update) Type() uint8 { return MsgUpdate }

func (u *Update) encodeBody(dst []byte) ([]byte, error) { return u.encode(dst, 0, false) }

// encode writes the withdrawn routes and the attribute block straight
// into dst behind a placeholder length each, then back-patches the
// lengths: nothing is built in a temporary and copied. With prepend set,
// lead goes in front of the AS_PATH (Attrs.encode).
func (u *Update) encode(dst []byte, lead uint16, prepend bool) ([]byte, error) {
	at := len(dst)
	dst, err := encodePrefixes(append(dst, 0, 0), u.Withdrawn)
	if err != nil {
		return nil, err
	}
	if err := patchLen(dst, at, "withdrawn routes too long"); err != nil {
		return nil, err
	}

	at = len(dst)
	if dst, err = u.Attrs.encode(append(dst, 0, 0), lead, prepend); err != nil {
		return nil, err
	}
	if err := patchLen(dst, at, "attributes too long"); err != nil {
		return nil, err
	}
	return encodePrefixes(dst, u.NLRI)
}

// patchLen writes the length of the block that follows the two-octet
// length field at dst[at:] into that field.
func patchLen(dst []byte, at int, tooLong string) error {
	n := len(dst) - at - 2
	if n > 0xffff {
		return protoErr(ErrCodeUpdateMessage, ErrSubMalformedAttrList, "%s", tooLong)
	}
	binary.BigEndian.PutUint16(dst[at:], uint16(n))
	return nil
}

// decode parses an UPDATE body into u, overwriting every field: the
// prefix lists reuse u's backing arrays, and the attribute set comes from
// tab when there is one (AttrTable.decode), fresh otherwise.
func (u *Update) decode(body []byte, tab *AttrTable) error {
	if len(body) < 4 {
		return protoErr(ErrCodeUpdateMessage, ErrSubMalformedAttrList, "short UPDATE body")
	}
	wdLen := int(binary.BigEndian.Uint16(body[0:2]))
	rest := body[2:]
	if len(rest) < wdLen {
		return protoErr(ErrCodeUpdateMessage, ErrSubMalformedAttrList, "withdrawn length overruns body")
	}
	var err error
	u.Withdrawn, err = decodePrefixes(u.Withdrawn, rest[:wdLen])
	if err != nil {
		return err
	}
	rest = rest[wdLen:]
	if len(rest) < 2 {
		return protoErr(ErrCodeUpdateMessage, ErrSubMalformedAttrList, "missing attribute length")
	}
	atLen := int(binary.BigEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if len(rest) < atLen {
		return protoErr(ErrCodeUpdateMessage, ErrSubMalformedAttrList, "attribute length overruns body")
	}
	if u.Attrs, err = tab.decode(rest[:atLen]); err != nil {
		return err
	}
	u.NLRI, err = decodePrefixes(u.NLRI, rest[atLen:])
	if err != nil {
		return err
	}
	if len(u.NLRI) > 0 {
		return u.Attrs.checkMandatory()
	}
	return nil
}

// encodePrefixes appends NLRI-encoded prefixes (RFC 4271 §4.3): a length
// octet followed by the minimal number of prefix octets.
func encodePrefixes(dst []byte, ps []netaddr.Prefix) ([]byte, error) {
	for _, p := range ps {
		bits := p.Bits()
		if !netaddr.IsValidLen(bits) {
			return nil, protoErr(ErrCodeUpdateMessage, ErrSubInvalidNetwork, "bad prefix length %d", bits)
		}
		dst = append(dst, uint8(bits))
		nb := (bits + 7) / 8
		a := uint32(p.Addr())
		for i := 0; i < nb; i++ {
			dst = append(dst, byte(a>>(24-8*i)))
		}
	}
	return dst, nil
}

// decodePrefixes parses NLRI-encoded prefixes into dst's backing array,
// rejecting lengths > 32, truncated prefixes, and non-zero host bits
// (non-canonical encodings). A first pass validates and counts, so a
// result that does not fit is allocated once; an empty block decodes to
// dst[:0], nil for a nil dst.
func decodePrefixes(dst []netaddr.Prefix, b []byte) ([]netaddr.Prefix, error) {
	n := 0
	for rest := b; len(rest) > 0; n++ {
		_, size, err := decodePrefix(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[size:]
	}
	out := slices.Grow(dst[:0], n)[:n]
	for i := range out {
		p, size, _ := decodePrefix(b)
		out[i] = p
		b = b[size:]
	}
	return out, nil
}

// decodePrefix reads the first NLRI-encoded prefix of b and the number of
// octets it occupies.
func decodePrefix(b []byte) (p netaddr.Prefix, size int, err error) {
	bits := int(b[0])
	if bits > 32 {
		return p, 0, protoErr(ErrCodeUpdateMessage, ErrSubInvalidNetwork, "prefix length %d", bits)
	}
	nb := (bits + 7) / 8
	if len(b) < 1+nb {
		return p, 0, protoErr(ErrCodeUpdateMessage, ErrSubInvalidNetwork, "truncated prefix")
	}
	var a uint32
	for i := 0; i < nb; i++ {
		a |= uint32(b[1+i]) << (24 - 8*i)
	}
	addr := netaddr.Addr(a)
	if addr&^netaddr.Mask(bits) != 0 {
		return p, 0, protoErr(ErrCodeUpdateMessage, ErrSubInvalidNetwork, "host bits set in %s/%d", addr, bits)
	}
	return netaddr.PrefixFrom(addr, bits), 1 + nb, nil
}

// ErrTruncated reports an incomplete message when framing from a stream.
var ErrTruncated = errors.New("bgp: truncated message")

// Frame splits the first complete message off a byte stream, returning the
// message bytes and the remainder. It returns ErrTruncated when more bytes
// are needed.
func Frame(stream []byte) (msg, rest []byte, err error) {
	if len(stream) < HeaderLen {
		return nil, stream, ErrTruncated
	}
	length := int(binary.BigEndian.Uint16(stream[16:18]))
	if length < HeaderLen || length > MaxMsgLen {
		return nil, stream, protoErr(ErrCodeMessageHeader, 2, "bad length %d in stream", length)
	}
	if len(stream) < length {
		return nil, stream, ErrTruncated
	}
	return stream[:length], stream[length:], nil
}

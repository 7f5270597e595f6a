// Package bgp implements the BGP-4 protocol elements of RFC 4271 the DiCE
// case study needs: the four message types with full wire encoding and
// validation, path attributes, and the session finite-state machine. It is
// the Go stand-in for BIRD's BGP implementation.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"

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
	buf := make([]byte, HeaderLen, 64)
	copy(buf, marker[:])
	buf[18] = m.Type()
	buf, err := m.encodeBody(buf)
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
func Decode(wire []byte) (Message, error) {
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
		return decodeUpdate(body)
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
	if o.Version != 4 {
		return nil, protoErr(ErrCodeOpenMessage, 1, "unsupported version %d", o.Version)
	}
	if o.HoldTime == 1 || o.HoldTime == 2 {
		return nil, protoErr(ErrCodeOpenMessage, 6, "unacceptable hold time %d", o.HoldTime)
	}
	if o.RouterID == 0 {
		return nil, protoErr(ErrCodeOpenMessage, 3, "bad BGP identifier")
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

// encodeBody writes the withdrawn routes and the attribute block straight
// into dst behind a placeholder length each, then back-patches the
// lengths: nothing is built in a temporary and copied.
func (u *Update) encodeBody(dst []byte) ([]byte, error) {
	at := len(dst)
	dst, err := encodePrefixes(append(dst, 0, 0), u.Withdrawn)
	if err != nil {
		return nil, err
	}
	if err := patchLen(dst, at, "withdrawn routes too long"); err != nil {
		return nil, err
	}

	at = len(dst)
	if dst, err = u.Attrs.encode(append(dst, 0, 0)); err != nil {
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

func decodeUpdate(body []byte) (*Update, error) {
	if len(body) < 4 {
		return nil, protoErr(ErrCodeUpdateMessage, ErrSubMalformedAttrList, "short UPDATE body")
	}
	u := &Update{}
	wdLen := int(binary.BigEndian.Uint16(body[0:2]))
	rest := body[2:]
	if len(rest) < wdLen {
		return nil, protoErr(ErrCodeUpdateMessage, ErrSubMalformedAttrList, "withdrawn length overruns body")
	}
	var err error
	u.Withdrawn, err = decodePrefixes(rest[:wdLen])
	if err != nil {
		return nil, err
	}
	rest = rest[wdLen:]
	if len(rest) < 2 {
		return nil, protoErr(ErrCodeUpdateMessage, ErrSubMalformedAttrList, "missing attribute length")
	}
	atLen := int(binary.BigEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if len(rest) < atLen {
		return nil, protoErr(ErrCodeUpdateMessage, ErrSubMalformedAttrList, "attribute length overruns body")
	}
	u.Attrs, err = decodeAttrs(rest[:atLen])
	if err != nil {
		return nil, err
	}
	u.NLRI, err = decodePrefixes(rest[atLen:])
	if err != nil {
		return nil, err
	}
	if len(u.NLRI) > 0 {
		if err := u.Attrs.checkMandatory(); err != nil {
			return nil, err
		}
	}
	return u, nil
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

// decodePrefixes parses NLRI-encoded prefixes, rejecting lengths > 32,
// truncated prefixes, and non-zero host bits (non-canonical encodings).
// A first pass validates and counts, so the result is allocated once;
// an empty block decodes to nil.
func decodePrefixes(b []byte) ([]netaddr.Prefix, error) {
	n := 0
	for rest := b; len(rest) > 0; n++ {
		_, size, err := decodePrefix(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[size:]
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]netaddr.Prefix, n)
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

// Package trace provides BGP trace capture and replay: an MRT-like binary
// format, a deterministic synthetic generator that stands in for the
// RouteViews trace used in the paper's evaluation (a full table dump of
// 319,355 prefixes plus a 15-minute update trace), and helpers to turn
// records into UPDATE messages.
//
// The substitution is documented in DESIGN.md: the experiments use the
// trace only as a bulk table-load workload and a steady update stream;
// the generator reproduces both load patterns with realistic prefix-length
// and AS-path-length distributions at configurable scale.
package trace

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"dice/internal/bgp"
	"dice/internal/codec"
	"dice/internal/netaddr"
)

// Kind tags a trace record.
type Kind uint8

// Record kinds.
const (
	// KindDump is a full-table (RIB) entry at trace start.
	KindDump Kind = iota
	// KindAnnounce is an incremental route announcement.
	KindAnnounce
	// KindWithdraw is an incremental route withdrawal.
	KindWithdraw
)

func (k Kind) String() string {
	switch k {
	case KindDump:
		return "dump"
	case KindAnnounce:
		return "announce"
	case KindWithdraw:
		return "withdraw"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one trace entry. At is the offset from trace start.
type Record struct {
	At     time.Duration
	Kind   Kind
	Prefix netaddr.Prefix
	Attrs  bgp.Attrs // valid for Dump and Announce
}

// The trace file format, DICETRC2, stated once in layout over a
// codec.C and serving both directions:
//
//	file:   "DICETRC2" | uvarint record count | records
//	record: kind octet | uvarint offset (ns) | prefix (4 address octets,
//	        length octet) | attribute block (bgp.AttrBlock; not on a
//	        withdrawal)
//
// Read is strict: a record kind, prefix or attribute block the encoder
// could not have written, or trailing bytes, is an error wrapping
// ErrBadFormat, so whatever Read accepts Write reproduces byte for byte.

// magic identifies the trace file format.
var magic = [8]byte{'D', 'I', 'C', 'E', 'T', 'R', 'C', '2'}

// ErrBadFormat reports a malformed trace file.
var ErrBadFormat = errors.New("trace: bad format")

// layout is the file's layout. Encoding returns the error of a record
// whose attributes have no encoding.
func layout(c *codec.C, records *[]Record) error {
	m := magic
	c.Fixed(m[:])
	if m != magic {
		c.Fail("bad magic %q", m[:])
	}
	var err error
	codec.List(c, records, 1+1+5, func(r *Record) { // kind, offset, prefix at least
		if e := r.wire(c); err == nil {
			err = e
		}
	})
	return err
}

// wire is one record's layout.
func (r *Record) wire(c *codec.C) error {
	kind, at := uint8(r.Kind), uint64(r.At)
	c.U8(&kind)
	c.Uvarint(&at)
	c.Prefix(&r.Prefix)
	if Kind(kind) > KindWithdraw {
		c.Fail("record kind %d", kind)
	} else if c.Decoding() {
		r.Kind, r.At = Kind(kind), time.Duration(at)
	}
	if Kind(kind) == KindWithdraw {
		return nil
	}
	return bgp.AttrBlock(c, &r.Attrs)
}

// Write serializes records to w.
func Write(w io.Writer, records []Record) error {
	c := codec.Encoder(nil)
	if err := layout(&c, &records); err != nil {
		return err
	}
	_, err := w.Write(c.Buf())
	return err
}

// Read parses a trace file written by Write: it reads all of r, then
// decodes it.
func Read(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	var records []Record
	c := codec.Decoder(data, ErrBadFormat)
	layout(&c, &records)
	if err := c.Finish(); err != nil {
		return nil, err
	}
	return records, nil
}

// GenConfig parameterizes the synthetic RouteViews-style generator.
type GenConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// TableSize is the number of prefixes in the initial full dump.
	// The paper's trace has 319,355; experiments scale this down.
	TableSize int
	// UpdateCount is the number of incremental updates following the dump.
	UpdateCount int
	// Duration spreads the incremental updates over this interval
	// (paper: 15 minutes).
	Duration time.Duration
	// WithdrawFraction is the fraction of updates that are withdrawals
	// (RouteViews traces run roughly 10%).
	WithdrawFraction float64
	// PeerAS is the first AS on every path (the peer the trace was
	// captured from).
	PeerAS uint16
	// NextHop is the next-hop carried on announcements.
	NextHop netaddr.Addr
}

// DefaultGenConfig mirrors the paper's workload at full scale.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:             1,
		TableSize:        319355,
		UpdateCount:      250, // the trace runs ~0.28 updates/s over 15 min (§4.1)
		Duration:         15 * time.Minute,
		WithdrawFraction: 0.1,
		PeerAS:           65003,
		NextHop:          netaddr.AddrFrom4(10, 0, 0, 3),
	}
}

// prefixLenDist approximates the global-table prefix length distribution:
// dominated by /24 with mass at /16, /19-/23 and a tail of short prefixes.
var prefixLenDist = []struct {
	bits   int
	weight int
}{
	{8, 1}, {10, 1}, {11, 1}, {12, 2}, {13, 2}, {14, 3}, {15, 3},
	{16, 10}, {17, 4}, {18, 5}, {19, 7}, {20, 8}, {21, 8}, {22, 12},
	{23, 10}, {24, 55},
}

var prefixLenTotal = func() int {
	t := 0
	for _, e := range prefixLenDist {
		t += e.weight
	}
	return t
}()

func randPrefixLen(rng *rand.Rand) int {
	n := rng.Intn(prefixLenTotal)
	for _, e := range prefixLenDist {
		n -= e.weight
		if n < 0 {
			return e.bits
		}
	}
	return 24
}

// randPrefix draws a canonical prefix in globally-routable-looking space
// (first octet 1..223, avoiding 0, loopback and multicast).
func randPrefix(rng *rand.Rand) netaddr.Prefix {
	bits := randPrefixLen(rng)
	for {
		a := netaddr.Addr(rng.Uint32())
		first := byte(a >> 24)
		if first == 0 || first == 127 || first >= 224 {
			continue
		}
		return netaddr.PrefixFrom(a, bits)
	}
}

// randPath builds an AS path starting at peerAS with a realistic length
// (2..6, geometric-ish).
func randPath(rng *rand.Rand, peerAS uint16) bgp.ASPath {
	n := 2
	for n < 6 && rng.Float64() < 0.55 {
		n++
	}
	asns := make([]uint16, n)
	asns[0] = peerAS
	for i := 1; i < n; i++ {
		asns[i] = uint16(rng.Intn(64000) + 1000)
	}
	return bgp.ASPath{{Type: bgp.ASSequence, ASNs: asns}}
}

func randAttrs(rng *rand.Rand, cfg GenConfig) bgp.Attrs {
	a := bgp.Attrs{
		HasOrigin:  true,
		Origin:     uint8(rng.Intn(3)),
		ASPath:     randPath(rng, cfg.PeerAS),
		HasNextHop: true,
		NextHop:    cfg.NextHop,
	}
	if rng.Float64() < 0.3 {
		a.HasMED, a.MED = true, uint32(rng.Intn(200))
	}
	if rng.Float64() < 0.2 {
		a.Communities = []uint32{bgp.MakeCommunity(cfg.PeerAS, uint16(rng.Intn(1000)))}
	}
	return a
}

// Generate produces a deterministic synthetic trace: a full dump of
// cfg.TableSize distinct prefixes at t=0 followed by cfg.UpdateCount
// incremental updates spread over cfg.Duration.
func Generate(cfg GenConfig) []Record {
	rng := rand.New(rand.NewSource(cfg.Seed))
	records := make([]Record, 0, cfg.TableSize+cfg.UpdateCount)

	seen := make(map[netaddr.Prefix]bool, cfg.TableSize)
	table := make([]netaddr.Prefix, 0, cfg.TableSize)
	for len(table) < cfg.TableSize {
		p := randPrefix(rng)
		if seen[p] {
			continue
		}
		seen[p] = true
		table = append(table, p)
		records = append(records, Record{
			At:     0,
			Kind:   KindDump,
			Prefix: p,
			Attrs:  randAttrs(rng, cfg),
		})
	}

	if cfg.UpdateCount > 0 && cfg.Duration <= 0 {
		cfg.Duration = 15 * time.Minute
	}
	withdrawn := map[netaddr.Prefix]bool{}
	for i := 0; i < cfg.UpdateCount; i++ {
		at := time.Duration(float64(cfg.Duration) * float64(i) / float64(cfg.UpdateCount))
		var p netaddr.Prefix
		fresh := len(table) == 0 || rng.Float64() < 0.15
		if fresh {
			p = randPrefix(rng)
		} else {
			p = table[rng.Intn(len(table))]
		}
		if !fresh && !withdrawn[p] && rng.Float64() < cfg.WithdrawFraction {
			withdrawn[p] = true
			records = append(records, Record{At: at, Kind: KindWithdraw, Prefix: p})
			continue
		}
		delete(withdrawn, p)
		records = append(records, Record{
			At:     at,
			Kind:   KindAnnounce,
			Prefix: p,
			Attrs:  randAttrs(rng, cfg),
		})
	}
	return records
}

// ToUpdate converts one record into an UPDATE message.
func ToUpdate(r Record) *bgp.Update {
	if r.Kind == KindWithdraw {
		return &bgp.Update{Withdrawn: []netaddr.Prefix{r.Prefix}}
	}
	return &bgp.Update{Attrs: r.Attrs, NLRI: []netaddr.Prefix{r.Prefix}}
}

// EncodeUpdate encodes the UPDATE ToUpdate builds for r straight to wire
// bytes: nothing but the encoding is allocated.
func EncodeUpdate(r *Record) ([]byte, error) {
	if r.Kind == KindWithdraw {
		return bgp.EncodeUpdate(&bgp.Update{Withdrawn: []netaddr.Prefix{r.Prefix}})
	}
	return bgp.EncodeUpdate(&bgp.Update{Attrs: r.Attrs, NLRI: []netaddr.Prefix{r.Prefix}})
}

// Split separates a trace into the initial dump and the update stream.
func Split(records []Record) (dump, updates []Record) {
	n := 0
	for _, r := range records {
		if r.Kind == KindDump {
			n++
		}
	}
	dump, updates = make([]Record, 0, n), make([]Record, 0, len(records)-n)
	for _, r := range records {
		if r.Kind == KindDump {
			dump = append(dump, r)
		} else {
			updates = append(updates, r)
		}
	}
	return dump, updates
}

package router

import (
	"errors"
	"fmt"
	"sort"

	"dice/internal/bgp"
	"dice/internal/codec"
	"dice/internal/config"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/rib"
)

// The checkpoint format, RTR2, is stated once, in meta and record over a
// codec.C, and serves both directions (ARCHITECTURE.md spells it out).
// EncodeStateChunks writes the meta chunk, then each /12 address
// bucket's records in prefix order; DecodeState reads the concatenation
// and accepts only what the encoder writes, so a restored router
// re-encodes to the same bytes.

const stateMagic = "RTR2"

// errState is the class of every DecodeState error.
var errState = errors.New("router: malformed checkpoint")

// minCandidate is a candidate's smallest encoding: router ID, AS, flags
// and an empty attribute block. It bounds decoded counts.
const minCandidate = 4 + 2 + 1 + 1

// meta is the first chunk: the magic, the prefix count and each peer's
// session counters. Decoding brings the sessions up Established.
func (r *Router) meta(c *codec.C, prefixes *int) {
	magic := []byte(stateMagic)
	c.Fixed(magic)
	if string(magic) != stateMagic {
		c.Fail("bad checkpoint magic %q", magic)
	}
	c.Count(prefixes, 5+1+minCandidate) // a record: prefix, count, candidate
	peers := len(r.order)
	c.Uint(&peers)
	if peers != len(r.order) {
		c.Fail("checkpoint of %d peers, config has %d (config drift?)", peers, len(r.order))
	}
	for _, ps := range r.order {
		name, in, out := ps.peer.Name, ps.sess.UpdatesIn, ps.sess.UpdatesOut
		c.Str(&name)
		c.Uvarint(&in)
		c.Uvarint(&out)
		if name != ps.peer.Name {
			c.Fail("checkpoint peer %q where config has %q (config drift?)", name, ps.peer.Name)
		} else if c.Decoding() {
			ps.sess.RestoreEstablished(in, out)
		}
	}
}

// record is one prefix with its candidates in candidateBefore order.
func record(c *codec.C, p *netaddr.Prefix, cands *[]*rib.Route) {
	c.Prefix(p)
	codec.List(c, cands, minCandidate, func(rt **rib.Route) {
		if c.Decoding() {
			*rt = &rib.Route{Prefix: *p}
		}
		candidate(c, *rt)
	})
	if len(*cands) == 0 {
		c.Fail("prefix %s has no candidates", *p)
	}
	for i := 1; i < len(*cands); i++ {
		if !candidateBefore((*cands)[i-1], (*cands)[i]) {
			c.Fail("candidates of %s out of order", *p)
		}
	}
}

// candidate is one route of a record, which gives it its prefix.
func candidate(c *codec.C, rt *rib.Route) {
	c.U32((*uint32)(&rt.PeerRouterID))
	c.U16(&rt.PeerAS)
	var flags uint8 // 1 eBGP, 2 local
	if rt.EBGP {
		flags |= 1
	}
	if rt.Local {
		flags |= 2
	}
	c.U8(&flags)
	if flags > 3 {
		c.Fail("unknown candidate flags %#x", flags)
	} else if c.Decoding() {
		rt.EBGP, rt.Local = flags&1 != 0, flags&2 != 0
	}
	if err := bgp.AttrBlock(c, &rt.Attrs); err != nil {
		panic(fmt.Sprintf("router: unencodable route state: %v", err))
	}
}

// candidateBefore is the canonical candidate order: the local route
// first, then learned routes by peer router ID. A prefix holds at most
// one local route and one route per peer (a rib replaces a route from
// the same source), so the order is strict.
func candidateBefore(a, b *rib.Route) bool {
	if a.Local != b.Local {
		return a.Local
	}
	return !a.Local && a.PeerRouterID < b.PeerRouterID
}

// EncodeStateChunks serializes the router's complete mutable state as
// stable regions: the meta chunk, then one chunk per /12 address bucket
// of the RIB. Mutating routes in one bucket leaves every other chunk
// byte-identical, which is what makes checkpoint COW sharing behave like
// fork()'s — a route insertion must not "shift" unrelated memory.
func (r *Router) EncodeStateChunks() [][]byte {
	// 4096 buckets (top 12 address bits): at full table scale each bucket
	// holds a few dozen routes ≈ one or two 4 KiB pages, matching the
	// granularity at which fork()'s COW dirties real heap pages.
	buckets := make([][]byte, 4096)
	prefixes := 0
	var sorted []*rib.Route
	r.loc.WalkAll(func(p netaddr.Prefix, candidates []*rib.Route) bool {
		sorted = append(sorted[:0], candidates...)
		sort.Slice(sorted, func(i, j int) bool { return candidateBefore(sorted[i], sorted[j]) })
		b := uint32(p.Addr()) >> 20
		c := codec.Encoder(buckets[b])
		record(&c, &p, &sorted)
		buckets[b] = c.Buf()
		prefixes++
		return true
	})

	c := codec.Encoder(nil)
	r.meta(&c, &prefixes)
	chunks := make([][]byte, 0, 4097)
	chunks = append(chunks, c.Buf())
	for _, b := range buckets {
		if len(b) > 0 {
			chunks = append(chunks, b)
		}
	}
	return chunks
}

// DecodeState reconstructs a router from a checkpoint: the concatenation
// of EncodeStateChunks' regions. This is what makes the §2.4 vision
// concrete: a remote node can checkpoint its state, ship the
// (self-contained) bytes, and exploration can "process these messages in
// isolation over their checkpointed states" on another machine. The
// restored router comes up with all sessions in Established (the state a
// forked process would be in) and its transport set to tr, normally a
// capture sink so restored state stays isolated.
func DecodeState(name string, cfg *config.Config, tr netsim.Transport, state []byte) (*Router, error) {
	r := newRouter(name, cfg, tr, rib.New())
	c := codec.Decoder(state, errState)
	var prefixes int
	r.meta(&c, &prefixes)
	var prev netaddr.Prefix
	var cands []*rib.Route
	for i := 0; i < prefixes && c.Err() == nil; i++ {
		var p netaddr.Prefix
		record(&c, &p, &cands)
		if i > 0 && prev.Compare(p) >= 0 {
			c.Fail("prefix %s does not follow %s", p, prev)
		}
		prev = p
		for _, rt := range cands {
			r.loc.Insert(rt)
		}
	}
	if err := c.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}

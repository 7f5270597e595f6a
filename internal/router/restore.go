package router

import (
	"encoding/binary"
	"fmt"

	"dice/internal/bgp"
	"dice/internal/config"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/rib"
)

// DecodeState reconstructs a router from a checkpoint: the concatenation
// of EncodeStateChunks' regions. This is what makes
// the §2.4 vision concrete: a remote node can checkpoint its state, ship
// the (self-contained) bytes, and exploration can "process these messages
// in isolation over their checkpointed states" on another machine —
// without sharing its configuration beyond what the checkpoint contains.
//
// The restored router comes up with all sessions in Established (the
// state a forked process would be in) and its transport set to tr, which
// is normally a capture sink so restored state stays isolated.
func DecodeState(name string, cfg *config.Config, tr netsim.Transport, state []byte) (*Router, error) {
	r := newRouter(name, cfg, tr, rib.New())

	// Meta chunk: magic + prefix count + per-peer counters in sorted
	// peer-name order.
	if len(state) < 8 || string(state[0:4]) != "RTR1" {
		return nil, fmt.Errorf("router: bad checkpoint magic")
	}
	wantPrefixes := int(binary.BigEndian.Uint32(state[4:8]))
	off := 8

	for _, ps := range r.order {
		n := ps.peer.Name
		// name bytes + NUL + 2 x u64
		if len(state) < off+len(n)+1+16 {
			return nil, fmt.Errorf("router: truncated session block for %q", n)
		}
		if string(state[off:off+len(n)]) != n || state[off+len(n)] != 0 {
			return nil, fmt.Errorf("router: checkpoint peer mismatch at %q (config drift?)", n)
		}
		off += len(n) + 1
		ps.sess.RestoreEstablished(
			binary.BigEndian.Uint64(state[off:off+8]),
			binary.BigEndian.Uint64(state[off+8:off+16]),
		)
		off += 16
	}

	// Route buckets: repeated prefix records until the state ends.
	seen := 0
	for off < len(state) {
		if len(state) < off+7 {
			return nil, fmt.Errorf("router: truncated prefix record at %d", off)
		}
		addr := netaddr.Addr(binary.BigEndian.Uint32(state[off : off+4]))
		bits := int(state[off+4])
		ncand := int(binary.BigEndian.Uint16(state[off+5 : off+7]))
		off += 7
		if !netaddr.IsValidLen(bits) {
			return nil, fmt.Errorf("router: bad prefix length %d", bits)
		}
		prefix := netaddr.PrefixFrom(addr, bits)
		for c := 0; c < ncand; c++ {
			if len(state) < off+11 {
				return nil, fmt.Errorf("router: truncated candidate at %d", off)
			}
			peerID := netaddr.Addr(binary.BigEndian.Uint32(state[off : off+4]))
			peerAS := binary.BigEndian.Uint16(state[off+4 : off+6])
			flags := state[off+6]
			wireLen := int(binary.BigEndian.Uint32(state[off+7 : off+11]))
			off += 11
			if len(state) < off+wireLen {
				return nil, fmt.Errorf("router: truncated route wire at %d", off)
			}
			m, err := bgp.Decode(state[off : off+wireLen])
			if err != nil {
				return nil, fmt.Errorf("router: corrupt route in checkpoint: %w", err)
			}
			off += wireLen
			u, ok := m.(*bgp.Update)
			if !ok || len(u.NLRI) != 1 || u.NLRI[0] != prefix {
				return nil, fmt.Errorf("router: checkpoint route/prefix mismatch at %s", prefix)
			}
			r.loc.Insert(&rib.Route{
				Prefix:       prefix,
				Attrs:        u.Attrs,
				PeerRouterID: peerID,
				PeerAS:       peerAS,
				EBGP:         flags&1 != 0,
				Local:        flags&2 != 0,
			})
		}
		seen++
	}
	if seen != wantPrefixes {
		return nil, fmt.Errorf("router: checkpoint declares %d prefixes, found %d", wantPrefixes, seen)
	}
	return r, nil
}

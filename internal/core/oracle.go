package core

import (
	"fmt"
	"strconv"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/config"
	"dice/internal/netaddr"
	"dice/internal/prop"
	"dice/internal/rib"
	"dice/internal/router"
	"dice/internal/solver"
	"dice/internal/sym"
)

// Finding is one potential fault detected by an oracle.
type Finding struct {
	Kind string // "prefix-hijack" or "route-leak"
	Peer string
	// Prefix is a concrete witness prefix the peer could announce and
	// have accepted.
	Prefix netaddr.Prefix
	// LeakRange describes the whole leaked region the path condition
	// admits ("DiCE clearly states which prefix ranges can be leaked",
	// §4.2) as an address interval and length bounds.
	LeakRange RangeDesc
	// OriginAS is the origin the exploratory route would install.
	OriginAS uint16
	// VictimAS is the legitimate origin being overridden.
	VictimAS uint16
	// VictimPrefix is the existing route whose traffic is diverted.
	VictimPrefix netaddr.Prefix
	// Input is the concrete witness assignment.
	Input map[string]uint64
	// Validated reports that the witness was confirmed by re-executing it
	// through the instrumented handler on a fresh clone.
	Validated bool
	// SpreadTo lists peers the validated witness would be re-announced
	// to: a hijack that spreads beyond the provider is Internet-affecting
	// (the YouTube incident required PCCW to propagate it).
	SpreadTo []string
	// Witness is the concrete announcement a federated round injected
	// for this finding (nil outside federated rounds, or when the
	// witness was dropped by dedup or the per-round cap).
	Witness *bgp.Update
	// MinimalWitness is the delta-debugged form of Witness: the smallest
	// announcement (AS-path length, community count, prefix specificity,
	// optional attributes) that still triggers the same cross-node
	// oracle with the same attribution when re-injected. Set only when
	// minimization ran and the witness triggered cross-node violations.
	MinimalWitness *bgp.Update
}

// RangeDesc is an over-approximated description of an input region.
type RangeDesc struct {
	AddrLo, AddrHi netaddr.Addr
	LenLo, LenHi   int
}

func (r RangeDesc) String() string {
	return string(r.AppendTo(nil))
}

// AppendTo appends r's "[lo..hi]/{min..max}" form to dst.
func (r RangeDesc) AppendTo(dst []byte) []byte {
	dst = append(r.AddrLo.AppendTo(append(dst, '[')), ".."...)
	dst = append(r.AddrHi.AppendTo(dst), "]/{"...)
	dst = append(strconv.AppendInt(dst, int64(r.LenLo), 10), ".."...)
	return append(strconv.AppendInt(dst, int64(r.LenHi), 10), '}')
}

// String renders a finding the way an operator report would.
func (f Finding) String() string {
	switch f.Kind {
	case "prefix-hijack":
		return fmt.Sprintf("%s: peer %s can announce %s (origin AS%d), overriding %s (origin AS%d); leakable range %s",
			f.Kind, f.Peer, f.Prefix, f.OriginAS, f.VictimPrefix, f.VictimAS, f.LeakRange)
	case "withdraw-blackhole":
		return fmt.Sprintf("%s: peer %s can withdraw %s and blackhole it; loss spreads to %v",
			f.Kind, f.Peer, f.Prefix, f.SpreadTo)
	}
	return fmt.Sprintf("%s: peer %s can announce %s (origin AS%d); leakable range %s",
		f.Kind, f.Peer, f.Prefix, f.OriginAS, f.LeakRange)
}

// FindingKey is a finding's identity: findings of one target with the
// same key report one potential fault, and the fold keeps one of them.
type FindingKey struct {
	Kind, Peer string
	// Prefix is a hijack's victim prefix, else the announced or withdrawn one.
	Prefix             netaddr.Prefix
	OriginAS, VictimAS uint16
	Spread             string
}

// Key returns the finding's identity.
func (f Finding) Key() FindingKey {
	p := f.Prefix
	if f.Kind == "prefix-hijack" {
		p = f.VictimPrefix
	}
	return FindingKey{Kind: f.Kind, Peer: f.Peer, Prefix: p, OriginAS: f.OriginAS, VictimAS: f.VictimAS, Spread: spreadKey(f.SpreadTo)}
}

// spreadKey renders a spread list the way fmt's %v prints it.
func spreadKey(spread []string) string {
	if len(spread) == 0 {
		return "[]"
	}
	var buf [64]byte
	return string(prop.AppendList(buf[:0], spread))
}

// judgeHijacks is the §4.2 origin-misconfiguration oracle for one
// explored path.
//
// The path condition of a path whose route was accepted describes the
// *set* of announcements the peer could make down that code path. The
// oracle intersects that region with the checkpoint-time routing table
// rt. It visits, in prefix order, only the best routes (victims) the
// region can reach — rt.WalkRange over the region's address interval, up
// to its longest length — and for each asks the constraint solver
// whether the accepted region contains an announcement that is equal to
// or more specific than the victim's prefix, i.e. one that would
// override ("hijack") its traffic with a different origin AS. Prefixes in
// configured anycast space are hijackable by nature and counted as
// filtered false positives. It returns nil for a path that threatens
// nothing. The region and every containment query start from the path
// condition's snapshot on sv, the worker's solver; a victim's conjuncts
// are never cached, so a scan of a large table leaves the snapshot chain
// as it found it.
func judgeHijacks(cfg *config.Config, rt rib.RouteTable, p *concolic.PathResult, sv *solver.Solver) *verdict {
	out, ok := p.Output.(router.Outcome)
	if !ok || !out.Accepted {
		return nil
	}
	cs := p.Constraints()
	info, feasible := sv.Analyze(cs)
	if !feasible {
		return nil
	}
	addrVar, lenVar := router.UpdateInputs.Var(router.UpdateAddr), router.UpdateInputs.Var(router.UpdateLen)
	region := regionFrom(info, addrVar.ID, lenVar.ID)

	v := &verdict{}
	rt.WalkRange(region.AddrLo, region.AddrHi, region.LenHi, func(vic *rib.Route) bool {
		if vic.OriginAS() == out.OriginAS {
			return true // same origin: re-announcement, not a hijack
		}
		// Exact check: path condition ∧ (announcement ⊆ victim).
		env, res := sv.SolveExtended(cs, []sym.Expr{
			sym.NewCmp(sym.OpEq,
				sym.NewBin(sym.OpAnd, addrVar, sym.NewConst(uint64(uint32(netaddr.Mask(vic.Prefix.Bits()))), 32)),
				sym.NewConst(uint64(uint32(vic.Prefix.Addr())), 32)),
			sym.NewCmp(sym.OpGe, lenVar, sym.NewConst(uint64(vic.Prefix.Bits()), 8)),
		}, p.Env)
		if res != solver.Sat {
			return true
		}
		witness := netaddr.PrefixFrom(netaddr.Addr(uint32(env[addrVar.ID])), int(env[lenVar.ID]))

		if cfg.IsAnycast(vic.Prefix) || cfg.IsAnycast(witness) {
			v.filtered++
			return true
		}
		v.findings = append(v.findings, Finding{
			Kind:         "prefix-hijack",
			Peer:         out.Peer,
			Prefix:       witness,
			LeakRange:    region,
			OriginAS:     out.OriginAS,
			VictimAS:     vic.OriginAS(),
			VictimPrefix: vic.Prefix,
			Input:        router.UpdateInputs.Named(env),
		})
		return true
	})
	if len(v.findings) == 0 && v.filtered == 0 {
		return nil
	}
	return v
}

// regionFrom extracts the announcement region from analyzed variables:
// the input model's address and mask-length variables.
func regionFrom(info map[int]solver.VarInfo, addrVarID, lenVarID int) RangeDesc {
	r := RangeDesc{AddrHi: netaddr.Addr(0xffffffff), LenHi: 32}
	if ai, ok := info[addrVarID]; ok {
		lo := ai.Lo
		hi := ai.Hi
		// Tighten with known bits.
		lo |= ai.One
		hi &^= ai.Zero
		if lo <= hi {
			r.AddrLo, r.AddrHi = netaddr.Addr(uint32(lo)), netaddr.Addr(uint32(hi))
		} else {
			r.AddrLo, r.AddrHi = netaddr.Addr(uint32(ai.Lo)), netaddr.Addr(uint32(ai.Hi))
		}
	}
	if li, ok := info[lenVarID]; ok {
		r.LenLo, r.LenHi = int(li.Lo), int(li.Hi)
		if r.LenHi > 32 {
			r.LenHi = 32
		}
	}
	return r
}

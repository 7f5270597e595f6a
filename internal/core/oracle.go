package core

import (
	"fmt"
	"sort"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/config"
	"dice/internal/netaddr"
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
	// Seq is the exploration run that discovered the accepting path.
	Seq int
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
	return fmt.Sprintf("[%s..%s]/{%d..%d}", r.AddrLo, r.AddrHi, r.LenLo, r.LenHi)
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

// judgeHijacks is the §4.2 origin-misconfiguration oracle for one
// explored path.
//
// The path condition of a path whose route was accepted describes the
// *set* of announcements the peer could make down that code path. The
// oracle intersects that region with the checkpoint-time routing table:
// for each existing best route (victims, in prefix order), it asks the
// constraint solver whether the accepted region contains an announcement
// that is equal to or more specific than the route's prefix — i.e. one
// that would override ("hijack") its traffic with a different origin AS.
// Prefixes in configured anycast space are hijackable by nature and
// counted as filtered false positives. It returns nil for a path that
// threatens nothing.
func judgeHijacks(cfg *config.Config, victims []*rib.Route, p *concolic.PathResult) *verdict {
	out, ok := p.Output.(router.Outcome)
	if !ok || !out.Accepted {
		return nil
	}
	cs := p.Constraints()
	info, feasible := solver.Analyze(cs)
	if !feasible {
		return nil
	}
	addrVar, lenVar := router.UpdateInputs.Var(router.UpdateAddr), router.UpdateInputs.Var(router.UpdateLen)
	region := regionFrom(info, addrVar.ID, lenVar.ID)

	v := &verdict{}
	for _, vic := range victims {
		if vic.OriginAS() == out.OriginAS {
			continue // same origin: re-announcement, not a hijack
		}
		// Cheap pre-filter: the victim's address range must intersect
		// the region's address interval, and the region must admit a
		// length >= the victim's.
		vLo := uint64(uint32(vic.Prefix.Addr()))
		vHi := uint64(uint32(vic.Prefix.Addr() | ^netaddr.Mask(vic.Prefix.Bits())))
		if vHi < uint64(uint32(region.AddrLo)) || vLo > uint64(uint32(region.AddrHi)) {
			continue
		}
		if region.LenHi < vic.Prefix.Bits() {
			continue
		}

		// Exact check: path condition ∧ (announcement ⊆ victim). The
		// full-slice expression keeps one victim's conjuncts out of cs.
		query := append(cs[:len(cs):len(cs)],
			sym.NewCmp(sym.OpEq,
				sym.NewBin(sym.OpAnd, addrVar, sym.NewConst(uint64(uint32(netaddr.Mask(vic.Prefix.Bits()))), 32)),
				sym.NewConst(uint64(uint32(vic.Prefix.Addr())), 32)),
			sym.NewCmp(sym.OpGe, lenVar, sym.NewConst(uint64(vic.Prefix.Bits()), 8)))
		env, res := solver.New(solver.Options{}).SolveHinted(query, p.Env)
		if res != solver.Sat {
			continue
		}
		witness := netaddr.PrefixFrom(netaddr.Addr(uint32(env[addrVar.ID])), int(env[lenVar.ID]))

		if cfg.IsAnycast(vic.Prefix) || cfg.IsAnycast(witness) {
			v.filtered++
			continue
		}
		v.findings = append(v.findings, Finding{
			Kind:         "prefix-hijack",
			Peer:         out.Peer,
			Prefix:       witness,
			LeakRange:    region,
			OriginAS:     out.OriginAS,
			VictimAS:     vic.OriginAS(),
			VictimPrefix: vic.Prefix,
			Seq:          p.Seq,
			Input:        router.UpdateInputs.Named(env),
		})
	}
	if len(v.findings) == 0 && v.filtered == 0 {
		return nil
	}
	return v
}

// DetectHijacks folds the per-path hijack verdicts of a finished update
// exploration: the first finding per (victim prefix, victim origin,
// hijacking origin) in discovery order, sorted by victim then witness
// prefix, and the total of anycast false positives filtered.
func DetectHijacks(rep *concolic.Report) (findings []Finding, filtered int) {
	seen := map[string]bool{}
	for pi := range rep.Paths {
		v := verdictOf(&rep.Paths[pi])
		if v == nil {
			continue
		}
		filtered += v.filtered
		for _, f := range v.findings {
			key := fmt.Sprintf("%s|%d|%d", f.VictimPrefix, f.VictimAS, f.OriginAS)
			if !seen[key] {
				seen[key] = true
				findings = append(findings, f)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if c := findings[i].VictimPrefix.Compare(findings[j].VictimPrefix); c != 0 {
			return c < 0
		}
		return findings[i].Prefix.Compare(findings[j].Prefix) < 0
	})
	return findings, filtered
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

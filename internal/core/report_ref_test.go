package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"dice/internal/bgp"
	"dice/internal/minimize"
	"dice/internal/netaddr"
	"dice/internal/prop"
)

// The reference formats: every report line as fmt rendered it before the
// append renderers replaced it, kept verbatim. Goldens, expected hashes
// and the parity tests compare these bytes, so each renderer must
// reproduce them exactly.

func refAddr(a netaddr.Addr) string {
	b0, b1, b2, b3 := a.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", b0, b1, b2, b3)
}

func refPrefix(p netaddr.Prefix) string {
	return fmt.Sprintf("%s/%d", refAddr(p.Addr()), p.Bits())
}

func refRange(r RangeDesc) string {
	return fmt.Sprintf("[%s..%s]/{%d..%d}", refAddr(r.AddrLo), refAddr(r.AddrHi), r.LenLo, r.LenHi)
}

func refFindingLine(f Finding) string {
	return fmt.Sprintf("  finding %s|%s|%s|%s|%d|%d|%s|validated=%t|spread=%v",
		f.Kind, f.Peer, refPrefix(f.Prefix), refRange(f.LeakRange), f.OriginAS, f.VictimAS, refPrefix(f.VictimPrefix), f.Validated, f.SpreadTo)
}

func refDetail(v FederatedViolation) string {
	c := v.Cause
	switch c.Kind {
	case prop.CauseNoConvergence, prop.CauseWithdrawPending:
		phase := "no convergence"
		if c.Kind == prop.CauseWithdrawPending {
			phase = "WITHDRAW did not converge"
		}
		return fmt.Sprintf("%s after %d propagation steps (%d deliveries still pending); %d waves, tail deliveries %v",
			phase, c.M, c.N, v.Waves, v.WaveTail)
	case prop.CauseSlowConvergence:
		return fmt.Sprintf("converged in %d propagation steps, exceeding the %d-step bound; %d waves, tail deliveries %v",
			c.N, c.M, v.Waves, v.WaveTail)
	case prop.CauseNotQuiet:
		return fmt.Sprintf("deliveries continued past wave %d: %d waves, tail deliveries %v", c.M, v.Waves, v.WaveTail)
	case prop.CauseRouteLeak:
		return fmt.Sprintf("advertisement carrying the no-export community (%d:%d) escaped AS boundary %s and was installed at %s",
			c.Boundary>>16, c.Boundary&0xffff, c.Name, v.Node)
	case prop.CauseInstalled:
		return fmt.Sprintf("witness route was installed at %s, forbidden by property %s", v.Node, c.Property)
	case prop.CauseBlackhole:
		return fmt.Sprintf("traffic from %s forward-traces %d hops and dead-ends at %s", v.Node, v.Hops, c.Name)
	case prop.CauseVia:
		return fmt.Sprintf("forwarding path from %s traverses %s (AS %d), forbidden by property %s", v.Node, c.Name, c.N, c.Property)
	case prop.CauseStale:
		return fmt.Sprintf("witness route survived its own WITHDRAW at %v", c.Nodes)
	}
	return ""
}

func refViolationLine(v FederatedViolation) string {
	return fmt.Sprintf("%s: %s at %s (witness from %s via %s, %d hops): %s",
		v.Kind, refPrefix(v.Prefix), v.Node, v.Peer, v.Source, v.Hops, refDetail(v))
}

func refRender(u *bgp.Update) string {
	var b strings.Builder
	if len(u.NLRI) > 0 {
		b.WriteString(refPrefix(u.NLRI[0]))
	} else {
		b.WriteString("<no-nlri>")
	}
	b.WriteString(" path=[")
	first := true
	for _, seg := range u.Attrs.ASPath {
		for _, as := range seg.ASNs {
			if !first {
				b.WriteByte(' ')
			}
			first = false
			fmt.Fprintf(&b, "%d", as)
		}
	}
	b.WriteString("]")
	if len(u.Attrs.Communities) > 0 {
		b.WriteString(" communities=[")
		for i, c := range u.Attrs.Communities {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%d", c>>16, c&0xffff)
		}
		b.WriteString("]")
	}
	if u.Attrs.HasMED {
		fmt.Fprintf(&b, " med=%d", u.Attrs.MED)
	}
	if u.Attrs.HasLocalPref {
		fmt.Fprintf(&b, " local_pref=%d", u.Attrs.LocalPref)
	}
	if u.Attrs.AtomicAggregate || u.Attrs.Aggregator != nil {
		b.WriteString(" aggregate")
	}
	if n := len(u.Attrs.Unknown); n > 0 {
		fmt.Fprintf(&b, " unknown_attrs=%d", n)
	}
	return b.String()
}

func refWitnessKey(node, peer string, u *bgp.Update) string {
	return fmt.Sprintf("%s|%s|%s|%v", node, peer, refPrefix(u.NLRI[0]), u.Attrs.Communities)
}

// refSnapshotRound is SnapshotRound as it was: one string per violation,
// then sort.Strings.
func refSnapshotRound(targets [][]string, violations []FederatedViolation, injected, skipped, steps int) []string {
	lines := []string{SnapshotHeader}
	for _, block := range targets {
		lines = append(lines, block...)
	}
	lines = append(lines, "violations")
	vs := make([]string, 0, len(violations))
	for _, v := range violations {
		vs = append(vs, "  "+refViolationLine(v))
	}
	sort.Strings(vs)
	lines = append(lines, vs...)
	return append(lines, fmt.Sprintf("summary witnesses_injected=%d witnesses_skipped=%d propagation_steps=%d",
		injected, skipped, steps))
}

// checkReportLines holds every append renderer to its reference format
// for one finding, one violation and one witness announcement.
func checkReportLines(t *testing.T, f Finding, v FederatedViolation, u *bgp.Update) {
	t.Helper()
	eq := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got %q\nwant %q", what, got, want)
		}
	}
	eq("Addr", f.Prefix.Addr().String(), refAddr(f.Prefix.Addr()))
	eq("%s of Addr", fmt.Sprintf("%s", f.VictimPrefix.Addr()), refAddr(f.VictimPrefix.Addr()))
	eq("Prefix", f.Prefix.String(), refPrefix(f.Prefix))
	eq("%s of Prefix", fmt.Sprintf("%s", f.VictimPrefix), refPrefix(f.VictimPrefix))
	eq("RangeDesc", f.LeakRange.String(), refRange(f.LeakRange))
	eq("finding line", f.line(), refFindingLine(f))
	eq("FindingKey spread", f.Key().Spread, fmt.Sprint(f.SpreadTo))
	eq("violation line", v.String(), refViolationLine(v))
	eq("%s of violation", fmt.Sprintf("%s", v), refViolationLine(v))
	eq("detail", v.Detail(), refDetail(v))
	pv := prop.Violation{Kind: v.Kind, Node: v.Node, Hops: v.Hops, Cause: v.Cause, Waves: v.Waves, WaveTail: v.WaveTail}
	eq("prop detail", pv.Detail(), refDetail(v))
	eq("witness", minimize.Render(u), refRender(u))
	if len(u.NLRI) > 0 {
		eq("WitnessKey", WitnessKey(f.Peer, v.Node, u), refWitnessKey(f.Peer, v.Node, u))
	}
	target := SnapshotTarget(v.Node, v.Peer, "update", "", []Finding{f, {Kind: "route-leak", Witness: u, MinimalWitness: u}})
	targets := [][]string{target, SnapshotTarget("a", "b", "open", "no seed", []Finding{f})}
	again := v
	again.Node, again.Hops = f.Peer, v.Hops+1
	vs := []FederatedViolation{v, again, v}
	eq("snapshot", strings.Join(SnapshotRound(targets, vs, 3, 1, v.Hops), "\n"),
		strings.Join(refSnapshotRound(targets, vs, 3, 1, v.Hops), "\n"))
}

// TestReportLinesMatchReference walks the edge values of every line kind:
// the smallest and largest prefixes, nil and empty spreads, an
// unvalidated finding, and every violation kind, including oscillation
// wave tails and multi-node stale lists.
func TestReportLinesMatchReference(t *testing.T) {
	witness := &bgp.Update{
		NLRI: []netaddr.Prefix{netaddr.MustParsePrefix("10.0.0.0/24")},
		Attrs: bgp.Attrs{
			ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint16{65001, 0, 65535}}},
			Communities: []uint32{0, 65535<<16 | 65281, 0xffffffff},
			HasMED:      true, MED: 4294967295, HasLocalPref: true, AtomicAggregate: true,
		},
	}
	bare := &bgp.Update{}
	findings := []Finding{
		{Kind: "prefix-hijack", Peer: "customer", Prefix: netaddr.MustParsePrefix("0.0.0.0/0"),
			LeakRange: RangeDesc{AddrHi: 0xffffffff, LenHi: 32}, OriginAS: 65535, VictimAS: 0,
			VictimPrefix: netaddr.MustParsePrefix("255.255.255.255/32"), Validated: true, SpreadTo: []string{"a", "b c"}},
		{Kind: "route-leak", Peer: "p", Prefix: netaddr.MustParsePrefix("255.255.255.255/32"),
			LeakRange: RangeDesc{AddrLo: 0xffffffff, AddrHi: 0, LenLo: -1, LenHi: 33}, SpreadTo: nil},
		{Kind: "withdraw-blackhole", Peer: "", Prefix: netaddr.MustParsePrefix("192.0.2.0/24"), SpreadTo: []string{}},
	}
	tail := []int{6, 6, 6, 6, 6, 6, 6, 6}
	base := FederatedViolation{Kind: "k", Node: "as1063", Source: "as1005", Peer: "as1032",
		Prefix: netaddr.MustParsePrefix("10.80.32.0/24"), Hops: 4}
	causes := []struct {
		c     prop.Cause
		waves int
		tail  []int
	}{
		{prop.Cause{}, 0, nil},
		{prop.Cause{Kind: prop.CauseNoConvergence, N: 3, M: 64}, 684, tail},
		{prop.Cause{Kind: prop.CauseWithdrawPending, N: 2, M: 64}, 9, []int{1}},
		{prop.Cause{Kind: prop.CauseSlowConvergence, N: 12, M: 10}, 0, []int{}},
		{prop.Cause{Kind: prop.CauseNotQuiet, M: 2}, 3, []int{0, -1, 7}},
		{prop.Cause{Kind: prop.CauseRouteLeak, Boundary: 65535<<16 | 65281, Name: "as1005"}, 0, nil},
		{prop.Cause{Kind: prop.CauseRouteLeak, Boundary: 0xffffffff}, 0, nil},
		{prop.Cause{Kind: prop.CauseInstalled, Property: "no-install"}, 0, nil},
		{prop.Cause{Kind: prop.CauseBlackhole, Name: "as9"}, 0, nil},
		{prop.Cause{Kind: prop.CauseVia, Name: "r9", N: 65009, Property: "avoid"}, 0, nil},
		{prop.Cause{Kind: prop.CauseStale, Nodes: []string{"r2", "r3", "r10"}}, 0, nil},
		{prop.Cause{Kind: prop.CauseStale, Nodes: []string{"r2"}}, 0, nil},
		{prop.Cause{Kind: prop.CauseStale}, 0, nil},
	}
	for i, f := range findings {
		for _, c := range causes {
			v := base
			v.Cause, v.Waves, v.WaveTail = c.c, c.waves, c.tail
			if c.c.Kind == prop.CauseBlackhole {
				v.Hops = -1 + i
			}
			u := witness
			if i == 1 {
				u = bare
			}
			checkReportLines(t, f, v, u)
		}
	}
}

// FuzzReportLines holds every append renderer byte-equal to its
// reference format on arbitrary field values.
func FuzzReportLines(f *testing.F) {
	f.Add(uint32(0), uint8(0), uint32(0xffffffff), 17, 24, "route-leak", "as1", "as2,as3", true,
		uint8(prop.CauseRouteLeak), 3, 64, uint32(65535<<16|65281), "as5", "p", 4, []byte{6, 6, 6})
	f.Add(uint32(0xffffffff), uint8(32), uint32(0), -1, 33, "prefix-hijack", "", "", false,
		uint8(prop.CauseStale), 0, 0, uint32(0), "r2,r3", "", 0, []byte{})
	f.Add(uint32(0x0a000000), uint8(8), uint32(7), 0, 0, "k", "x y", ",", true,
		uint8(prop.CauseNoConvergence), 2, 64, uint32(1), "", "", 684, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, addr uint32, bits uint8, hi uint32, lenLo, lenHi int, kind, peer, spread string, validated bool,
		cause uint8, n, m int, boundary uint32, name, property string, hops int, tail []byte) {
		p := netaddr.PrefixFrom(netaddr.Addr(addr), int(bits%33))
		var spreadTo []string
		if spread != "" {
			spreadTo = strings.Split(spread, ",")
		}
		fi := Finding{Kind: kind, Peer: peer, Prefix: p, LeakRange: RangeDesc{AddrLo: netaddr.Addr(addr), AddrHi: netaddr.Addr(hi), LenLo: lenLo, LenHi: lenHi},
			OriginAS: uint16(n), VictimAS: uint16(m), VictimPrefix: netaddr.PrefixFrom(netaddr.Addr(hi), lenHi), Validated: validated, SpreadTo: spreadTo}
		ints := make([]int, len(tail))
		for i, b := range tail {
			ints[i] = int(int8(b))
		}
		v := FederatedViolation{Kind: kind, Node: name, Source: property, Peer: peer, Prefix: p, Hops: hops,
			Cause: prop.Cause{Kind: prop.CauseKind(cause % 10), N: n, M: m, Boundary: boundary, Name: name, Property: property,
				Nodes: slices.Clip(spreadTo)},
			Waves: len(tail), WaveTail: ints}
		u := &bgp.Update{NLRI: []netaddr.Prefix{p}, Attrs: bgp.Attrs{
			ASPath:      []bgp.ASPathSegment{{ASNs: []uint16{uint16(n), uint16(m)}}},
			Communities: []uint32{boundary, hi},
			HasMED:      validated, MED: boundary, HasLocalPref: !validated, LocalPref: hi,
		}}
		checkReportLines(t, fi, v, u)
	})
}

package core

import (
	"strings"
	"testing"
	"time"

	"dice/internal/bgp"
	"dice/internal/minimize"
	"dice/internal/netaddr"
	"dice/internal/prop"
	"dice/internal/trace"
)

// --- Witness minimization over real example topologies -----------------------

// TestMinimizeWitnessEndToEnd is the acceptance criterion for the
// minimization loop: on examples/routeleak and examples/badgadget,
// every finding whose witness triggered cross-node violations carries a
// MinimalWitness that (a) still triggers the same oracles with the same
// attribution when re-injected, (b) is no larger than the original in
// any measured dimension, and (c) at least one finding per topology
// actually shrinks.
func TestMinimizeWitnessEndToEnd(t *testing.T) {
	for _, path := range []string{
		"../../examples/routeleak/topo.json",
		"../../examples/badgadget/topo.json",
	} {
		t.Run(path, func(t *testing.T) {
			topo, err := LoadTopology(path)
			if err != nil {
				t.Fatal(err)
			}
			opts := fedOpts()
			opts.Minimize = true
			fe, err := NewFederatedExperiment(topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fe.Round()
			if err != nil {
				t.Fatal(err)
			}

			shrunk, minimized := 0, 0
			for _, tr := range res.Targets {
				if tr.Err != nil {
					continue
				}
				trShrunk, trMinimized := 0, 0
				for _, f := range tr.Result.Findings {
					if f.Witness == nil {
						continue
					}
					orig, err := fe.CheckWitness(tr.Node, tr.Peer, f.Witness)
					if err != nil {
						t.Fatal(err)
					}
					if len(orig.Violations) == 0 {
						if f.MinimalWitness != nil {
							t.Errorf("%s: witness triggered nothing but was minimized", f.Prefix)
						}
						continue
					}
					if f.MinimalWitness == nil {
						t.Errorf("%s: violating witness has no MinimalWitness", f.Prefix)
						continue
					}
					minimized++
					trMinimized++

					// (a) The minimal witness reproduces every original
					// violation with the same attribution fingerprint.
					want := map[string]bool{}
					for _, v := range orig.Violations {
						want[ViolationFingerprint(v)] = true
					}
					again, err := fe.CheckWitness(tr.Node, tr.Peer, f.MinimalWitness)
					if err != nil {
						t.Fatal(err)
					}
					if !CoversFingerprints(again.Violations, want) {
						t.Errorf("%s: minimal witness %s lost violations (want %v, got %v)",
							f.Prefix, minimize.Render(f.MinimalWitness), want, again.Violations)
					}

					// (b) Never larger in any dimension.
					ws, ms := minimize.SizeOf(f.Witness), minimize.SizeOf(f.MinimalWitness)
					if ms.LargerThan(ws) {
						t.Errorf("%s: minimal witness grew: %+v -> %+v", f.Prefix, ws, ms)
					}
					if ms != ws {
						shrunk++
						trShrunk++
					}
				}
				// Minimization stats are per target.
				if tr.Result.Minimization != nil {
					st := tr.Result.Minimization
					if st.Witnesses != trMinimized {
						t.Errorf("stats count %d witnesses, observed %d minimized findings", st.Witnesses, trMinimized)
					}
					if st.Shrunk != trShrunk {
						t.Errorf("stats count %d shrunk, observed %d", st.Shrunk, trShrunk)
					}
				}
			}
			if minimized == 0 {
				t.Fatal("round minimized no witnesses (no violating findings?)")
			}
			// (c) Delta debugging must achieve something on these examples:
			// their witnesses carry a leak community plus solver-chosen
			// incidentals, so at least one must come out strictly smaller.
			if shrunk == 0 {
				t.Error("no finding's witness actually shrank")
			}
		})
	}
}

// TestMinimizeOffLeavesFindingsBare: without FederatedOptions.Minimize
// the round reports witnesses but no MinimalWitness and no stats.
func TestMinimizeOffLeavesFindingsBare(t *testing.T) {
	fe, err := NewFederatedExperiment(leakTopo3AS(false), fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Targets {
		if tr.Err != nil {
			continue
		}
		if tr.Result.Minimization != nil {
			t.Error("minimization stats present with Minimize off")
		}
		for _, f := range tr.Result.Findings {
			if f.MinimalWitness != nil {
				t.Errorf("%s: MinimalWitness set with Minimize off", f.Prefix)
			}
		}
	}
}

// --- Violation fingerprints --------------------------------------------------

func TestViolationFingerprint(t *testing.T) {
	base := FederatedViolation{Kind: "route-leak", Node: "upstream", Source: "provider", Peer: "customer",
		Prefix: netaddr.MustParsePrefix("10.7.0.0/16"), Hops: 2,
		Cause: prop.Cause{Kind: prop.CauseRouteLeak, Boundary: 65001<<16 | 666, Name: "provider"}}

	// Witness-dependent fields (prefix span, hop count, detail text)
	// legitimately change as the witness shrinks — same fingerprint.
	shrunkForm := base
	shrunkForm.Prefix = netaddr.MustParsePrefix("10.0.0.0/8")
	shrunkForm.Hops = 1
	shrunkForm.Cause.Boundary = 65001<<16 | 667
	if ViolationFingerprint(base) != ViolationFingerprint(shrunkForm) {
		t.Error("fingerprint depends on witness-dependent fields")
	}

	// Attribution fields are identity.
	other := base
	other.Node = "customer"
	if ViolationFingerprint(base) == ViolationFingerprint(other) {
		t.Error("fingerprint ignores the observing node")
	}

	want := map[string]bool{ViolationFingerprint(base): true}
	if !CoversFingerprints([]FederatedViolation{shrunkForm}, want) {
		t.Error("shrunk form does not cover the original")
	}
	if CoversFingerprints([]FederatedViolation{other}, want) {
		t.Error("differently-attributed violation covers the original")
	}
	if !CoversFingerprints([]FederatedViolation{other, base}, want) {
		t.Error("superset does not cover")
	}
}

// --- Trace replay into the live fabric ---------------------------------------

// replayRecords builds a hand-crafted history on the customer→provider
// ingress of leakTopo3AS: two acceptable dump prefixes, one the import
// filter rejects, then an announce and a withdraw at distinct offsets.
func replayRecords() []trace.Record {
	attrs := func() bgp.Attrs {
		return bgp.Attrs{
			HasOrigin:  true,
			Origin:     bgp.OriginIGP,
			ASPath:     bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{65001, 64999}}},
			HasNextHop: true,
			NextHop:    netaddr.AddrFrom4(10, 0, 0, 1),
		}
	}
	return []trace.Record{
		{At: 0, Kind: trace.KindDump, Prefix: netaddr.MustParsePrefix("10.55.1.0/24"), Attrs: attrs()},
		{At: 0, Kind: trace.KindDump, Prefix: netaddr.MustParsePrefix("10.55.2.0/24"), Attrs: attrs()},
		{At: 0, Kind: trace.KindDump, Prefix: netaddr.MustParsePrefix("172.16.0.0/24"), Attrs: attrs()},
		{At: 100 * time.Millisecond, Kind: trace.KindAnnounce, Prefix: netaddr.MustParsePrefix("10.55.3.0/24"), Attrs: attrs()},
		{At: 200 * time.Millisecond, Kind: trace.KindWithdraw, Prefix: netaddr.MustParsePrefix("10.55.1.0/24")},
	}
}

func TestReplayTraceDrivesFabric(t *testing.T) {
	fe, err := NewFederatedExperiment(leakTopo3AS(false), fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	prov := fe.Fabric.Routers["provider"]
	pre := prov.RIB().Prefixes()

	records := replayRecords()
	n, err := fe.Replay("provider", "customer", records)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(records) {
		t.Fatalf("replayed %d of %d records", n, len(records))
	}

	// Accepted dump + announce installed; the withdraw took its prefix
	// back out; the filtered prefix never made it in.
	for p, want := range map[string]bool{
		"10.55.1.0/24":  false, // withdrawn at 200ms
		"10.55.2.0/24":  true,
		"10.55.3.0/24":  true,  // announced at 100ms
		"172.16.0.0/24": false, // rejected by customer_in
	} {
		got := prov.RIB().Best(netaddr.MustParsePrefix(p)) != nil
		if got != want {
			t.Errorf("provider best(%s) = %v, want %v", p, got, want)
		}
	}
	if got := prov.RIB().Prefixes(); got != pre+2 {
		t.Errorf("provider table %d prefixes, want %d", got, pre+2)
	}

	// The provider's accept-all export leaked the replayed routes on to
	// the upstream over the live fabric.
	if fe.Fabric.Routers["upstream"].RIB().Best(netaddr.MustParsePrefix("10.55.3.0/24")) == nil {
		t.Error("replayed announce did not propagate to the upstream")
	}

	// The replayed history is what exploration now seeds from: the last
	// message observed is the withdraw, the announcement template is the
	// last NLRI-carrying update before it.
	if ob := prov.LastObserved("customer"); ob == nil || len(ob.Withdrawn) != 1 || ob.Withdrawn[0] != netaddr.MustParsePrefix("10.55.1.0/24") {
		t.Errorf("last observed is not the final replayed record: %+v", ob)
	}
	seed := prov.LastAnnounced("customer")
	if seed == nil || len(seed.NLRI) != 1 || seed.NLRI[0] != netaddr.MustParsePrefix("10.55.3.0/24") {
		t.Errorf("announcement seed is not the replayed announce: %+v", seed)
	}

	// And a round runs cleanly on top of the withdraw-terminated history.
	res, err := fe.Round()
	if err != nil {
		t.Fatalf("round over replayed history: %v", err)
	}
	if len(res.Targets) != 1 || res.Targets[0].Err != nil {
		t.Fatalf("replayed round targets: %+v", res.Targets)
	}
}

func TestReplayTraceErrors(t *testing.T) {
	fe, err := NewFederatedExperiment(leakTopo3AS(false), fedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Replay("provider", "nonesuch", replayRecords()); err == nil {
		t.Error("unknown ingress peer accepted")
	}
	if _, err := fe.Replay("customer", "upstream", replayRecords()); err == nil {
		t.Error("replay accepted a peering with no session")
	}
}

// --- Snapshot rendering ------------------------------------------------------

// TestSnapshotShape: the canonical snapshot opens with the header,
// groups sorted findings (with their witness sub-lines attached) under
// their target, and closes with sorted violations plus the summary.
func TestSnapshotShape(t *testing.T) {
	opts := fedOpts()
	opts.Minimize = true
	fe, err := NewFederatedExperiment(leakTopo3AS(false), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	lines := res.Snapshot()
	if lines[0] != SnapshotHeader {
		t.Fatalf("snapshot starts with %q", lines[0])
	}
	var findings, witnesses, minimals []string
	sawTarget, sawSummary := false, false
	for _, l := range lines[1:] {
		switch {
		case strings.HasPrefix(l, "target provider<-customer"):
			sawTarget = true
		case strings.HasPrefix(l, "  finding "):
			findings = append(findings, l)
		case strings.HasPrefix(l, "    witness "):
			witnesses = append(witnesses, l)
		case strings.HasPrefix(l, "    minimal "):
			minimals = append(minimals, l)
		case strings.HasPrefix(l, "summary witnesses_injected="):
			sawSummary = true
		}
	}
	if !sawTarget || !sawSummary {
		t.Fatalf("snapshot missing target or summary:\n%s", strings.Join(lines, "\n"))
	}
	if len(findings) == 0 || len(witnesses) == 0 || len(minimals) == 0 {
		t.Fatalf("snapshot missing finding/witness/minimal lines:\n%s", strings.Join(lines, "\n"))
	}
	for i := 1; i < len(findings); i++ {
		if findings[i-1] > findings[i] {
			t.Errorf("findings not sorted: %q before %q", findings[i-1], findings[i])
		}
	}

	// Rendering is a pure function of the result.
	again := res.Snapshot()
	if strings.Join(lines, "\n") != strings.Join(again, "\n") {
		t.Error("Snapshot is not deterministic over the same result")
	}
}

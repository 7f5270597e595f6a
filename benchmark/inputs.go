package main

import (
	"fmt"
	"math/rand"
	"strings"

	"dice/internal/bgp"
	"dice/internal/core"
	"dice/internal/netaddr"
	"dice/internal/trace"
)

// tenNet is the 10.0.0.0/8 space both Fig. 2 filters and their oracles
// reason about. Generated table prefixes inside it would make findings
// depend on the seed's table draw, and churn inside it would make them
// depend on where the ring stood at checkpoint time — so both stay out.
var tenNet = netaddr.MustParsePrefix("10.0.0.0/8")

// tableRecords generates the full-table dump for a Fig. 2 workload: size
// seeded prefixes outside 10/8, plus the paper's hijack victims.
func tableRecords(seed int64, size int) []trace.Record {
	cfg := trace.DefaultGenConfig()
	cfg.Seed = seed
	cfg.TableSize = size + size/64 // headroom for the 10/8 draws dropped below
	cfg.UpdateCount = 0
	out := make([]trace.Record, 0, size+3)
	for _, r := range trace.Generate(cfg) {
		if len(out) == size {
			break
		}
		if !tenNet.Overlaps(r.Prefix) {
			out = append(out, r)
		}
	}
	return append(out, core.Victims()...)
}

// churnRing builds the stationary live-update stream: a fixed ring of
// UPDATEs over already-loaded prefixes, in groups of four — flap A's
// attributes, withdraw B, restore A, re-announce B. After any whole
// group the table is exactly the loaded one and mid-group it is one
// prefix short, so a build that pushes more updates per second never
// grows the table the explorer checkpoints (trace.Generate's own update
// stream adds 15% fresh prefixes and drifted 20k→33k in 12 s).
func churnRing(seed int64, table []trace.Record, groups int) []*bgp.Update {
	rng := rand.New(rand.NewSource(seed ^ 0x636875726e)) // "churn"
	pool := table[:len(table)-len(core.Victims())]
	pick := rng.Perm(len(pool))[:2*groups]
	ring := make([]*bgp.Update, 0, 4*groups)
	for g := 0; g < groups; g++ {
		a, b := pool[pick[2*g]], pool[pick[2*g+1]]
		flap := a
		flap.Attrs = a.Attrs.Clone()
		flap.Attrs.HasMED, flap.Attrs.MED = true, 200+uint32(rng.Intn(200))
		ring = append(ring,
			trace.ToUpdate(flap),
			&bgp.Update{Withdrawn: []netaddr.Prefix{b.Prefix}},
			trace.ToUpdate(a),
			trace.ToUpdate(b))
	}
	return ring
}

// deepPolicy generates the deep_policy workload's customer import filter:
// the customer's own space, then `clauses` guards over distinct seeded
// /16s of 10/8, each with a {lo,hi} length range and one extra conjunct.
// Conjuncts on bgp_path.origin are symbolic in the routeleak scenario
// (one more negatable branch); those on local_pref / med / origin hold
// concretely for the customer's seed announcement and cost filter.Run
// time only. The catch-all keeps the Fig. 2 misconfiguration, so there is
// something to find.
func deepPolicy(seed int64, clauses int) string {
	rng := rand.New(rand.NewSource(seed ^ 0x706f6c696379)) // "policy"
	var b strings.Builder
	b.WriteString("filter customer_in {\n    if net ~ 10.7.0.0/16 then accept;\n")
	n := 0
	for _, oct := range rng.Perm(256) {
		if n == clauses {
			break
		}
		if oct == 7 || oct == 0 { // the customer's own /16; the peering addresses
			continue
		}
		lo := 17 + rng.Intn(4)
		hi := lo + 2 + rng.Intn(6)
		var extra string
		switch n % 4 {
		case 0:
			extra = fmt.Sprintf(" && bgp_path.origin != %d", 64512+rng.Intn(512))
		case 1:
			extra = " && local_pref >= 0"
		case 2:
			extra = fmt.Sprintf(" && med < %d", 100+rng.Intn(900))
		case 3:
			extra = " && origin = igp"
		}
		fmt.Fprintf(&b, "    if net ~ 10.%d.0.0/16{%d,%d}%s then accept;\n", oct, lo, hi, extra)
		n++
	}
	b.WriteString("    if net ~ 10.0.0.0/8{24,32} then accept;\n    reject;\n}")
	return b.String()
}

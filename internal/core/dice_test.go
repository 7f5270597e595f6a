package core

import (
	"testing"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/netaddr"
	"dice/internal/router"
	"dice/internal/trace"
)

func smallTrace(tableSize, updates int) []trace.Record {
	cfg := trace.DefaultGenConfig()
	cfg.TableSize = tableSize
	cfg.UpdateCount = updates
	return trace.Generate(cfg)
}

// victimRecord installs a route with a known origin AS, giving the hijack
// oracle a deterministic victim.
func victimRecord(prefix string, origin uint16) trace.Record {
	return trace.Record{
		Kind:   trace.KindDump,
		Prefix: netaddr.MustParsePrefix(prefix),
		Attrs: bgp.Attrs{
			HasOrigin:  true,
			Origin:     bgp.OriginIGP,
			ASPath:     bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{InternetAS, origin}}},
			HasNextHop: true,
			NextHop:    netaddr.MustParseAddr("10.0.0.3"),
		},
	}
}

func TestFig2Converges(t *testing.T) {
	f, err := NewFig2(Fig2Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Provider learned the customer's space.
	if f.Provider.RIB().Best(CustomerSpace) == nil {
		t.Fatal("provider missing customer route")
	}
	// Internet learned it through the provider with the full path.
	rt := f.Internet.RIB().Best(CustomerSpace)
	if rt == nil {
		t.Fatal("internet missing customer route")
	}
	if rt.Attrs.ASPath.String() != "65002 65001" {
		t.Fatalf("path at internet: %s", rt.Attrs.ASPath)
	}
}

func TestFig2LoadTable(t *testing.T) {
	f, err := NewFig2(Fig2Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := smallTrace(1000, 0)
	n, err := f.LoadTable(recs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("loaded %d", n)
	}
	// Provider holds the table (plus the customer route).
	if got := f.Provider.RIB().Prefixes(); got < 990 {
		t.Fatalf("provider table size %d", got)
	}
}

func TestFig2ReplayUpdates(t *testing.T) {
	f, err := NewFig2(Fig2Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := smallTrace(200, 100)
	if _, err := f.LoadTable(recs); err != nil {
		t.Fatal(err)
	}
	before := f.Provider.Counters().UpdatesProcessed
	n, err := f.ReplayUpdates(recs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("replayed %d", n)
	}
	if got := f.Provider.Counters().UpdatesProcessed - before; got != 100 {
		t.Fatalf("provider processed %d updates", got)
	}
}

// TestDetectsRouteLeakWithBrokenFilter is the paper's §4.2 experiment in
// miniature: misconfigured customer filtering at the provider; DiCE must
// find inputs that hijack existing routes.
func TestDetectsRouteLeakWithBrokenFilter(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	// Load some Internet routes so there are victims to hijack, plus a
	// deterministic victim covering the filter hole's range.
	recs := smallTrace(300, 0)
	recs = append(recs, victimRecord("10.6.0.0/16", 64999))
	if _, err := f.LoadTable(recs); err != nil {
		t.Fatal(err)
	}

	d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 3000}})
	res, err := d.ExplorePeer(NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatalf("no hijack findings; %d paths, %d runs", len(res.Report.Paths), res.Report.Runs)
	}
	for _, fd := range res.Findings {
		if fd.Kind != "prefix-hijack" {
			t.Fatalf("unexpected finding kind %q", fd.Kind)
		}
		if fd.OriginAS == fd.VictimAS {
			t.Fatalf("non-hijack flagged: %+v", fd)
		}
		if CustomerSpace.Covers(fd.Prefix) {
			t.Fatalf("customer's own space flagged as hijack: %v", fd.Prefix)
		}
	}
	// Live provider must be untouched: its customer route is still there
	// and its RIB has no explored garbage beyond the loaded table.
	if f.Provider.RIB().Best(CustomerSpace) == nil {
		t.Fatal("live RIB corrupted by exploration")
	}
}

// TestCorrectFilterYieldsNoFindings: with proper customer filtering, the
// only acceptable announcements are inside customer space, so the oracle
// stays quiet.
func TestCorrectFilterYieldsNoFindings(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: CorrectCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadTable(smallTrace(300, 0)); err != nil {
		t.Fatal(err)
	}
	d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 3000}})
	res, err := d.ExplorePeer(NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range res.Findings {
		t.Errorf("false finding with correct filter: %v", fd)
	}
}

// TestAnycastFalsePositiveFiltered: hijackable-by-nature anycast prefixes
// must be suppressed once configured (§4.2).
func TestAnycastFalsePositiveFiltered(t *testing.T) {
	anycast := netaddr.MustParsePrefix("10.99.0.0/16")

	run := func(withAnycast bool) *Result {
		opts := Fig2Options{CustomerFilter: MissingCustomerFilter}
		if withAnycast {
			opts.Anycast = []netaddr.Prefix{anycast}
		}
		f, err := NewFig2(opts)
		if err != nil {
			t.Fatal(err)
		}
		// Install a single victim route covering the anycast space, from
		// the Internet side.
		rec := trace.Record{
			Kind:   trace.KindDump,
			Prefix: anycast,
			Attrs:  smallTrace(1, 0)[0].Attrs,
		}
		if _, err := f.LoadTable([]trace.Record{rec}); err != nil {
			t.Fatal(err)
		}
		d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 2000}})
		res, err := d.ExplorePeer(NodeCustomer)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	without := run(false)
	hitsAnycast := false
	for _, fd := range without.Findings {
		if anycast.Covers(fd.Prefix) {
			hitsAnycast = true
		}
	}
	if !hitsAnycast {
		t.Skip("exploration did not reach the anycast prefix in budget; nothing to compare")
	}
	with := run(true)
	for _, fd := range with.Findings {
		if anycast.Covers(fd.Prefix) {
			t.Fatalf("anycast prefix still flagged: %v", fd)
		}
	}
	if with.FalsePositivesFiltered == 0 {
		t.Fatal("filter counter did not record suppression")
	}
}

// TestIsolationInvariant: every message produced during exploration lands
// in the capture sink; the live network sees nothing.
func TestIsolationInvariant(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadTable(smallTrace(100, 0)); err != nil {
		t.Fatal(err)
	}
	beforeStats := f.Net.Stats(NodeProvider, NodeInternet)

	d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 500}})
	res, err := d.ExplorePeer(NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapturedMessages == 0 {
		t.Fatal("exploration produced no messages — clones not exercising propagation")
	}
	afterStats := f.Net.Stats(NodeProvider, NodeInternet)
	if afterStats.Messages != beforeStats.Messages {
		t.Fatalf("exploration leaked %d messages onto the live network",
			afterStats.Messages-beforeStats.Messages)
	}
	if f.Net.Pending() != 0 {
		t.Fatal("exploration enqueued live deliveries")
	}
}

// TestMemoryAccounting: checkpoint pages shared with the live state, and
// clone overheads measured per run.
func TestMemoryAccounting(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadTable(smallTrace(500, 0)); err != nil {
		t.Fatal(err)
	}
	d := New(f.Provider, Options{
		Engine:        concolic.Options{MaxRuns: 200},
		MeasureMemory: true,
	})
	res, err := d.ExplorePeer(NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Memory
	if m.CheckpointPages == 0 {
		t.Fatal("checkpoint has no pages")
	}
	// Live router did not process anything during exploration here, so
	// the checkpoint should share ~everything with the live state.
	if m.CheckpointUniqueFraction > 0.01 {
		t.Fatalf("checkpoint unique fraction %v, want ~0 (idle live node)", m.CheckpointUniqueFraction)
	}
	if m.ClonesMeasured == 0 {
		t.Fatal("no clones measured")
	}
	// Clones insert at most a handful of routes into a 500-prefix table:
	// overhead must be a small fraction, far below a full copy.
	if m.CloneOverheadMean > 0.2 {
		t.Fatalf("mean clone overhead %v — sharing broken", m.CloneOverheadMean)
	}
	if m.CloneOverheadMax < m.CloneOverheadMean {
		t.Fatal("max < mean")
	}
}

func TestExplorePeerErrors(t *testing.T) {
	f, err := NewFig2(Fig2Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := New(f.Provider, Options{})
	if _, err := d.ExplorePeer("nonexistent"); err == nil {
		t.Fatal("unknown peer accepted")
	}
	// The internet peer has sent nothing NLRI-bearing to the provider...
	// actually it has (nothing). Customer has (its network). Use a fresh
	// customer-less check: internet observed no updates from provider?
	d2 := New(f.Customer, Options{})
	if _, err := d2.ExplorePeer(NodeInternet); err == nil {
		t.Fatal("peer with no observed updates accepted")
	}
}

// TestFindingsAreActionable: the finding must carry the witness input
// with the standard variable names (the operator-facing report).
func TestFindingsAreActionable(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadTable(smallTrace(200, 0)); err != nil {
		t.Fatal(err)
	}
	d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 2000}})
	res, err := d.ExplorePeer(NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Skip("no findings in budget")
	}
	fd := res.Findings[0]
	if _, ok := fd.Input[router.UpdateAddr]; !ok {
		t.Fatalf("finding input missing %s: %v", router.UpdateAddr, fd.Input)
	}
	if fd.String() == "" {
		t.Fatal("empty finding string")
	}
}

// TestWitnessValidation: every reported finding must carry a validated
// witness (re-executed concretely through the instrumented handler).
func TestWitnessValidation(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	recs := append(smallTrace(200, 0), victimRecord("10.6.0.0/16", 64999))
	if _, err := f.LoadTable(recs); err != nil {
		t.Fatal(err)
	}
	res, err := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 2000}}).ExplorePeer(NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("no findings to validate")
	}
	for _, fd := range res.Findings {
		if !fd.Validated {
			t.Fatalf("unvalidated finding reported: %v", fd)
		}
	}
}

// TestExploreOpenCoversAllFSMOutcomes: the future-work extension — OPEN
// exploration must enumerate the Established path plus every rejection
// class of the session FSM (version, hold time, identifier, peer AS).
func TestExploreOpenCoversAllFSMOutcomes(t *testing.T) {
	f, err := NewFig2(Fig2Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 500}})
	res, err := d.ExploreOpen(NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths < 5 {
		t.Fatalf("expected >= 5 FSM paths, got %d", res.Paths)
	}
	wantSubcodes := map[uint8]bool{1: false, 2: false, 3: false, 6: false}
	established := false
	for _, out := range res.Outcomes {
		if out.Established {
			established = true
			continue
		}
		if _, ok := wantSubcodes[out.NotifySubcode]; ok {
			wantSubcodes[out.NotifySubcode] = true
		}
	}
	if !established {
		t.Error("Established outcome not explored")
	}
	for sub, found := range wantSubcodes {
		if !found {
			t.Errorf("OPEN error subcode %d not explored; outcomes: %+v", sub, res.Outcomes)
		}
	}
	// The live peering must be untouched.
	if f.Provider.Session(NodeCustomer).State() != bgp.StateEstablished {
		t.Fatal("live session disturbed by OPEN exploration")
	}
	if res.String() == "" {
		t.Fatal("empty report")
	}
}

// TestHijackSpreadTracked: a validated hijack finding reports which peers
// the provider would re-announce it to — the YouTube hijack only became
// an incident because PCCW spread it. With the default (accept-all)
// export policy toward the Internet, findings must spread there.
func TestHijackSpreadTracked(t *testing.T) {
	f, err := NewFig2(Fig2Options{CustomerFilter: BrokenCustomerFilter})
	if err != nil {
		t.Fatal(err)
	}
	recs := append(smallTrace(100, 0), victimRecord("10.6.0.0/16", 64999))
	if _, err := f.LoadTable(recs); err != nil {
		t.Fatal(err)
	}
	res, err := New(f.Provider, Options{Engine: concolic.Options{MaxRuns: 2000}}).ExplorePeer(NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("no findings")
	}
	for _, fd := range res.Findings {
		spreads := false
		for _, p := range fd.SpreadTo {
			if p == NodeInternet {
				spreads = true
			}
		}
		if !spreads {
			t.Fatalf("finding does not spread to the internet peer: %+v", fd)
		}
	}
}

// TestExportFilterBlocksSpread: with an export filter that refuses
// customer-learned more-specifics toward the Internet, hijacks are still
// accepted locally but no longer spread — the defense PCCW lacked.
func TestExportFilterBlocksSpread(t *testing.T) {
	// Provider config with broken import but protective export.
	providerFilter := BrokenCustomerFilter + `
	filter no_specifics_out {
		if net.len > 22 then reject;
		accept;
	}`
	f, err := NewFig2(Fig2Options{CustomerFilter: providerFilter})
	if err != nil {
		t.Fatal(err)
	}
	// Rewire: the Fig2 provider template only attaches customer_in; build
	// a custom provider config instead.
	_ = f
	cfgSrc := `
		router id 10.0.0.2; local as 65002;
		` + BrokenCustomerFilter + `
		filter no_specifics_out {
			if net.len > 22 then reject;
			accept;
		}
		peer customer { remote 10.0.0.1 as 65001; import filter customer_in; }
		peer internet { remote 10.0.0.3 as 65003; export filter no_specifics_out; }`
	f2, err := newFig2WithProviderConfig(cfgSrc)
	if err != nil {
		t.Fatal(err)
	}
	recs := append(smallTrace(100, 0), victimRecord("10.6.0.0/16", 64999))
	if _, err := f2.LoadTable(recs); err != nil {
		t.Fatal(err)
	}
	res, err := New(f2.Provider, Options{Engine: concolic.Options{MaxRuns: 3000}}).ExplorePeer(NodeCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Skip("no findings in budget")
	}
	for _, fd := range res.Findings {
		if fd.Prefix.Bits() > 22 {
			for _, p := range fd.SpreadTo {
				if p == NodeInternet {
					t.Fatalf("/%d hijack spread despite export filter: %+v", fd.Prefix.Bits(), fd)
				}
			}
		}
	}
}

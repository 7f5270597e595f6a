package config

import (
	"strings"
	"testing"
	"time"

	"dice/internal/netaddr"
)

const sample = `
# Provider router (Figure 2 of the paper)
router id 10.0.0.2;
local as 65002;

filter customer_in {
    if net ~ 10.7.0.0/16 then accept;
    reject;
}

filter transit_in {
    if bgp_path.len > 32 then reject;
    accept;
}

anycast 192.88.99.0/24;

network 10.2.0.0/16;

peer customer {
    remote 10.0.0.1 as 65001;
    import filter customer_in;
    hold 30;
}

peer internet {
    remote 10.0.0.3 as 65003;
    import filter transit_in;
    export filter transit_in;
}
`

func TestParseSample(t *testing.T) {
	cfg, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RouterID != netaddr.MustParseAddr("10.0.0.2") || cfg.LocalAS != 65002 {
		t.Fatalf("identity: %v AS%d", cfg.RouterID, cfg.LocalAS)
	}
	if len(cfg.Filters) != 2 {
		t.Fatalf("filters: %d", len(cfg.Filters))
	}
	if len(cfg.Peers) != 2 {
		t.Fatalf("peers: %d", len(cfg.Peers))
	}
	cust := cfg.FindPeer("customer")
	if cust == nil || cust.AS != 65001 || cust.Addr != netaddr.MustParseAddr("10.0.0.1") {
		t.Fatalf("customer peer: %+v", cust)
	}
	if cust.Import == nil || cust.Import.Name != "customer_in" {
		t.Fatalf("customer import: %+v", cust.Import)
	}
	if cust.Export != nil {
		t.Fatal("customer export should be nil (accept all)")
	}
	if cust.HoldTime != 30*time.Second {
		t.Fatalf("hold time: %v", cust.HoldTime)
	}
	inet := cfg.FindPeer("internet")
	if inet == nil || inet.Export == nil || inet.Export.Name != "transit_in" {
		t.Fatalf("internet peer: %+v", inet)
	}
	if len(cfg.Networks) != 1 || cfg.Networks[0].String() != "10.2.0.0/16" {
		t.Fatalf("networks: %v", cfg.Networks)
	}
	if len(cfg.Anycast) != 1 {
		t.Fatalf("anycast: %v", cfg.Anycast)
	}
	if cfg.FindPeer("missing") != nil {
		t.Fatal("FindPeer should return nil for unknown names")
	}
}

func TestIsAnycast(t *testing.T) {
	cfg, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.IsAnycast(netaddr.MustParsePrefix("192.88.99.0/24")) {
		t.Error("exact anycast prefix not detected")
	}
	if !cfg.IsAnycast(netaddr.MustParsePrefix("192.88.99.128/25")) {
		t.Error("anycast more-specific not detected")
	}
	if cfg.IsAnycast(netaddr.MustParsePrefix("192.88.0.0/16")) {
		t.Error("covering prefix wrongly detected as anycast")
	}
	if cfg.IsAnycast(netaddr.MustParsePrefix("8.8.8.0/24")) {
		t.Error("unrelated prefix detected as anycast")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing router id": "local as 1;",
		"missing local as":  "router id 1.1.1.1;",
		"bad router id":     "router id banana; local as 1;",
		"bad as":            "router id 1.1.1.1; local as 99999999;",
		"unknown statement": "router id 1.1.1.1; local as 1; frobnicate;",
		"bad network":       "router id 1.1.1.1; local as 1; network 1.2.3.4;",
		"unknown filter ref": `router id 1.1.1.1; local as 1;
			peer x { remote 2.2.2.2 as 2; import filter nope; }`,
		"peer missing remote": `router id 1.1.1.1; local as 1;
			peer x { import filter f; } filter f { accept; }`,
		"duplicate peer": `router id 1.1.1.1; local as 1;
			peer x { remote 2.2.2.2 as 2; } peer x { remote 3.3.3.3 as 3; }`,
		"duplicate filter": `router id 1.1.1.1; local as 1;
			filter f { accept; } filter f { reject; }`,
		"bad peer option": `router id 1.1.1.1; local as 1;
			peer x { remote 2.2.2.2 as 2; bogus option; }`,
		"bad filter body": `router id 1.1.1.1; local as 1;
			filter f { if frob > 1 then accept; }`,
		"bad hold": `router id 1.1.1.1; local as 1;
			peer x { remote 2.2.2.2 as 2; hold banana; }`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
	# leading comment
	router id 1.1.1.1;   # trailing comment
	local as 7;
	`
	cfg, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LocalAS != 7 {
		t.Fatalf("AS = %d", cfg.LocalAS)
	}
}

func TestFilterBodyBracesDoNotConfuseSplitter(t *testing.T) {
	src := `
	router id 1.1.1.1;
	local as 7;
	filter f {
	    if net ~ 10.0.0.0/8{8,24} then { accept; } else { reject; }
	}
	peer p { remote 2.2.2.2 as 9; import filter f; }
	`
	cfg, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Filters["f"] == nil || cfg.FindPeer("p") == nil {
		t.Fatal("nested braces broke statement splitting")
	}
	if !strings.Contains(cfg.Filters["f"].String(), "10.0.0.0/8{8,24}") {
		t.Fatalf("filter content lost: %s", cfg.Filters["f"])
	}
}

// TestErrorLines holds every error to the file line of the offending
// token: a statement's line is that of its first rune even after blank
// and comment lines, and an error inside a block names its own line.
func TestErrorLines(t *testing.T) {
	const head = "# identity\nrouter id 10.0.0.2;\nlocal as 65002;\n"
	cases := []struct{ name, src, want string }{
		{"statement after a blank line",
			head + "\n# originated space\nnetwork 10.0.0.0;\n",
			`config: line 6: netaddr: invalid prefix: "10.0.0.0" (missing '/')`},
		{"fourth line of a filter block",
			head + "\n# policy\nfilter f {\n  if net ~ 10.0.0.0/8 then accept;\n  # long paths\n  if med >< 5 then reject;\n  reject;\n}\n",
			`config: line 9: expected number, found "<"`},
		{"bad option inside a peer block",
			head + "# peers\npeer p {\n  remote 10.0.0.1 as 65001;\n  # timers\n  hold banana;\n}\n",
			`config: line 8: bad hold time "banana"`},
		{"unknown statement after a block",
			head + "filter f {\n  accept;\n}\n\n# misc\nfrobnicate;\n",
			`config: line 9: unknown statement "frobnicate"`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: got error %v, want %s", c.name, err, c.want)
		}
	}
}

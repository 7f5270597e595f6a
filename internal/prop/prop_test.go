package prop

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dice/internal/bgp"
	"dice/internal/filter"
	"dice/internal/netaddr"
)

func mustParse(t *testing.T, src string) *Property {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return p
}

func mustCompile(t *testing.T, src string) *Compiled {
	t.Helper()
	c, err := Compile(mustParse(t, src))
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return c
}

func mustPrefix(t *testing.T, s string) netaddr.Prefix {
	t.Helper()
	p, err := netaddr.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		`property p1 { kind "route-leak"; when community boundary; assert never installed; }`,
		`property p2 { kind "stale-route"; assert never stale; }`,
		`property p3 { kind "slow"; assert eventually converges within 64 steps; }`,
		`property p4 { kind "osc"; assert eventually converges; }`,
		`property p5 { kind "quiet"; assert always quiet after wave 3; }`,
		`property p6 { kind "avoid"; assert never reachable via 65003; }`,
		`property p7 { kind "scoped"; when (net ~ 10.0.0.0/8{8,32} && ! community (65000,1)); at local_pref >= 200; assert never blackholed; }`,
		`property p8 { kind "guarded"; when (via 65001 || bgp_path.len > 3); assert never installed; }`,
		`property p9 { kind "orig"; when origin = 0; assert never installed; }`,
		`property p10 { kind "lit"; when true; at false; assert never installed; }`,
	}
	for _, src := range srcs {
		p := mustParse(t, src)
		printed := p.String()
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", printed, err)
		}
		if p2.String() != printed {
			t.Fatalf("round trip not stable:\n first: %s\nsecond: %s", printed, p2.String())
		}
	}
}

func TestParseErrorsCarryLines(t *testing.T) {
	cases := []struct {
		src  string
		line int
		want string
	}{
		{"property p {\n kind 42;\n}", 2, "kind string"},
		{"property p { kind \"x\";\nassert never flies; }", 2, "unknown assertion"},
		{"property p { kind \"x\"; assert never stale; kind \"y\"; }", 1, "duplicate kind"},
		{"property p { assert never stale; }", 1, "no kind clause"},
		{"property p { kind \"x\"; }", 1, "no assert clause"},
		{"property p { kind \"x\"; when med @ 3; assert never stale; }", 1, "unexpected character"},
		{"property p { kind \"x\"; when fuel > 3; assert never stale; }", 1, "unknown field"},
		{"property p { kind \"bad kind\"; assert never stale; }", 1, "bad kind"},
		{"property p { kind \"x\"; assert eventually converges within 0 steps; }", 1, "must be positive"},
		{"property p { kind \"x\"; assert never stale;", 1, "unterminated"},
	}
	for _, tc := range cases {
		_, err := ParseAll(tc.src)
		if err == nil {
			t.Fatalf("ParseAll(%q): no error", tc.src)
		}
		pe, ok := err.(*ParseError)
		if !ok {
			t.Fatalf("ParseAll(%q): error %T is not *ParseError", tc.src, err)
		}
		if pe.Line != tc.line {
			t.Errorf("ParseAll(%q): line %d, want %d", tc.src, pe.Line, tc.line)
		}
		if !strings.Contains(pe.Msg, tc.want) {
			t.Errorf("ParseAll(%q): msg %q, want containing %q", tc.src, pe.Msg, tc.want)
		}
		if !strings.HasPrefix(pe.Error(), "property: ") {
			t.Errorf("ParseAll(%q): error %q lacks property prefix", tc.src, pe.Error())
		}
	}
}

func TestCompileRejects(t *testing.T) {
	// An `at` clause on a non-node-scoped assertion is meaningless.
	p := mustParse(t, `property p { kind "x"; at med = 1; assert never stale; }`)
	if _, err := Compile(p); err == nil || !strings.Contains(err.Error(), "node-scoped") {
		t.Fatalf("Compile accepted at+stale: %v", err)
	}
}

// TestUnknownLeafPanics: a predicate node neither parser produces is AST
// drift, and evaluating it fails as loudly as it does in a filter program
// — never as a silent false.
func TestUnknownLeafPanics(t *testing.T) {
	type bogus struct{ Expr }
	c := mustCompile(t, `property p { kind "x"; when true; assert never installed; }`)
	c.When = &filter.NotExpr{X: bogus{}}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "unhandled predicate node") {
			t.Fatalf("evaluating an unknown leaf: recovered %v, want the drift panic", r)
		}
	}()
	c.WhenHolds(witnessEnv(t, nil, []uint16{65001}))
}

// TestSharedGrammar: the route predicates of a `when` / `at` clause and
// the condition of a filter `if` are one grammar — the same source parses
// to equal filter.Expr trees in both languages — while the two
// property-only leaves stay out of filter programs, which reject them
// with a line-numbered error.
func TestSharedGrammar(t *testing.T) {
	for _, src := range []string{
		`true`,
		`! false`,
		`net ~ 10.0.0.0/8`,
		`net ~ 10.0.0.0/8{16,24}`,
		`net.len >= 24 && bgp_path.len < 5`,
		`(med = 3 || local_pref != 100) && ! community (65000,7)`,
		`origin = igp || origin = incomplete || origin = 1`,
		`bgp_path.origin = 65001 && bgp_path.first > 64512 && ! (net ~ 192.168.0.0/16 || med <= 9)`,
	} {
		f, err := filter.Parse("filter f { if " + src + " then accept; }")
		if err != nil {
			t.Fatalf("filter rejects %q: %v", src, err)
		}
		p := mustParse(t, `property p { kind "k"; when `+src+`; at `+src+`; assert never installed; }`)
		cond := f.Stmts[0].(*filter.IfStmt).Cond
		if !reflect.DeepEqual(p.When, cond) || !reflect.DeepEqual(p.At, cond) {
			t.Errorf("%q parses to %s in a filter, %s / %s in a property", src, cond, p.When, p.At)
		}
	}
	for src, want := range map[string]string{
		"filter f {\n if via 65003 then accept;\n}":            `unknown field "via"`,
		"filter f {\n\n if community boundary then accept;\n}": "expected '('",
	} {
		_, err := filter.Parse(src)
		pe, ok := err.(*filter.ParseError)
		if !ok || !strings.Contains(pe.Msg, want) || pe.Line != strings.Count(src[:strings.Index(src, "if")], "\n")+1 {
			t.Errorf("filter.Parse(%q) = %v, want a line-numbered %q", src, err, want)
		}
	}
}

func witnessEnv(t *testing.T, communities []uint32, path []uint16) *Env {
	t.Helper()
	attrs := &bgp.Attrs{
		ASPath:      bgp.ASPath{{Type: bgp.ASSequence, ASNs: path}},
		Communities: communities,
	}
	return NewEnv(mustPrefix(t, "10.9.0.0/16"), attrs, bgp.MakeCommunity(65000, 999))
}

func TestPredicateEvaluation(t *testing.T) {
	env := witnessEnv(t, []uint32{bgp.MakeCommunity(65000, 999), 7}, []uint16{65002, 65001})
	cases := []struct {
		src  string
		want bool
	}{
		{`when community boundary`, true},
		{`when community (65000,999)`, true},
		{`when community (65000,998)`, false},
		{`when via 65001`, true},
		{`when via 65009`, false},
		{`when bgp_path.len = 2`, true},
		{`when net ~ 10.0.0.0/8`, true},
		{`when net ~ 11.0.0.0/8`, false},
		{`when (via 65001 && ! community (1,1))`, true},
		{`when (false || net.len >= 16)`, true},
	}
	for _, tc := range cases {
		c := mustCompile(t, `property p { kind "x"; `+tc.src+`; assert never installed; }`)
		if got := c.WhenHolds(env); got != tc.want {
			t.Errorf("%s: WhenHolds=%v, want %v", tc.src, got, tc.want)
		}
	}
	// Boundary predicate misses when the witness lacks the community.
	bare := witnessEnv(t, nil, []uint16{65002})
	c := mustCompile(t, `property p { kind "x"; when community boundary; assert never installed; }`)
	if c.WhenHolds(bare) {
		t.Error("boundary guard held without the boundary community")
	}
}

func factsFixture(t *testing.T) *Facts {
	boundary := bgp.MakeCommunity(65000, 999)
	return &Facts{
		Node: "r1", Peer: "ext", Boundary: boundary, MaxSteps: 64,
		Witness: witnessEnv(t, []uint32{boundary}, []uint16{65002}),
		Update:  Phase{Steps: 12, Waves: []int{4, 4, 4}},
		Nodes: []NodeFacts{
			{Name: "r2", Hops: 1, Terminal: "r1", Delivered: true, Path: []string{"r2", "r1"}},
			{Name: "r3", Hops: 2, Terminal: "r9", Delivered: false, Path: []string{"r3", "r2", "r9"}},
		},
		Withdraw: Phase{Steps: 6, Waves: []int{3, 3}},
		Stale:    []string{"r2", "r3"},
		NodeAS: func(name string) (uint16, bool) {
			switch name {
			case "r2":
				return 65002, true
			case "r9":
				return 65009, true
			}
			return 0, false
		},
	}
}

// TestEvaluateBuiltins pins the builtin oracle behaviors — and their
// exact detail strings — against a hand-built fact set.
func TestEvaluateBuiltins(t *testing.T) {
	f := factsFixture(t)
	vs := Evaluate(Builtins(), f)
	if len(vs) != 4 {
		t.Fatalf("got %d violations, want 4: %+v", len(vs), vs)
	}
	leak1, leak2, hole, stale := vs[0], vs[1], vs[2], vs[3]
	if leak1.Kind != "route-leak" || leak1.Node != "r2" ||
		leak1.Detail != RouteLeakDetail(f.Boundary, "r1", "r2") {
		t.Errorf("leak1 = %+v", leak1)
	}
	if leak2.Kind != "route-leak" || leak2.Node != "r3" {
		t.Errorf("leak2 = %+v", leak2)
	}
	if hole.Kind != "multi-hop-blackhole" || hole.Node != "r3" || hole.Hops != 2 ||
		hole.Detail != "traffic from r3 forward-traces 2 hops and dead-ends at r9" {
		t.Errorf("hole = %+v", hole)
	}
	if stale.Kind != "stale-route" || stale.Node != "r2" ||
		stale.Detail != "witness route survived its own WITHDRAW at [r2 r3]" {
		t.Errorf("stale = %+v", stale)
	}

	// Without the boundary community the route-leak guard gates out.
	f.Witness = witnessEnv(t, nil, []uint16{65002})
	vs = Evaluate(Builtins(), f)
	for _, v := range vs {
		if v.Kind == "route-leak" {
			t.Fatalf("route-leak fired without boundary community: %+v", v)
		}
	}
}

func TestEvaluateOscillationShortCircuits(t *testing.T) {
	f := factsFixture(t)
	f.Update.Pending = 3
	vs := Evaluate(Builtins(), f)
	if len(vs) != 1 || vs[0].Kind != "persistent-oscillation" || vs[0].Node != "r1" {
		t.Fatalf("got %+v, want single oscillation at r1", vs)
	}
	if vs[0].Detail != OscillationDetail("no convergence", 64, 3, f.Update.Waves) {
		t.Errorf("detail = %q", vs[0].Detail)
	}

	f = factsFixture(t)
	f.Withdraw.Pending = 2
	vs = Evaluate(Builtins(), f)
	last := vs[len(vs)-1]
	if last.Kind != "persistent-oscillation" ||
		last.Detail != OscillationDetail("WITHDRAW did not converge", 64, 2, f.Withdraw.Waves) {
		t.Fatalf("got %+v, want withdraw oscillation last", vs)
	}
	for _, v := range vs {
		if v.Kind == "stale-route" {
			t.Error("stale fired while WITHDRAW had pending deliveries")
		}
	}
}

func TestEvaluateTemporalAssertions(t *testing.T) {
	f := factsFixture(t)
	props := []*Compiled{
		mustCompile(t, `property fast { kind "slow-convergence"; assert eventually converges within 10 steps; }`),
		mustCompile(t, `property calm { kind "noisy"; assert always quiet after wave 2; }`),
		mustCompile(t, `property roomy { kind "fine"; assert eventually converges within 100 steps; }`),
		mustCompile(t, `property loose { kind "fine2"; assert always quiet after wave 3; }`),
	}
	vs := Evaluate(props, f)
	if len(vs) != 2 {
		t.Fatalf("got %+v, want slow-convergence and noisy", vs)
	}
	if vs[0].Kind != "slow-convergence" || !strings.Contains(vs[0].Detail, "exceeding the 10-step bound") {
		t.Errorf("vs[0] = %+v", vs[0])
	}
	if vs[1].Kind != "noisy" || !strings.Contains(vs[1].Detail, "past wave 2") {
		t.Errorf("vs[1] = %+v", vs[1])
	}
}

func TestEvaluateViaAndAt(t *testing.T) {
	f := factsFixture(t)
	props := []*Compiled{
		mustCompile(t, `property avoid { kind "via-leak"; assert never reachable via 65009; }`),
	}
	vs := Evaluate(props, f)
	if len(vs) != 1 || vs[0].Node != "r3" || !strings.Contains(vs[0].Detail, "traverses r9 (AS 65009)") {
		t.Fatalf("via: got %+v", vs)
	}

	// `at` over the installed route: only nodes whose route matches fire.
	// The verdicts are answered where the route lives (AtMatches) and
	// travel as AtMatch, indexed like the property list.
	props = []*Compiled{
		mustCompile(t, `property tagged { kind "tagged-install"; at community (2,2); assert never installed; }`),
	}
	f.Nodes[0].AtMatch = []bool{props[0].AtMatches(witnessEnv(t, []uint32{bgp.MakeCommunity(2, 2)}, []uint16{65002}))}
	f.Nodes[1].AtMatch = []bool{props[0].AtMatches(witnessEnv(t, nil, []uint16{65002}))}
	vs = Evaluate(props, f)
	if len(vs) != 1 || vs[0].Node != "r2" {
		t.Fatalf("at: got %+v", vs)
	}

	f.Nodes[0].AtMatch = []bool{false}
	f.Nodes[1].AtMatch = []bool{true}
	vs = Evaluate(props, f)
	if len(vs) != 1 || vs[0].Node != "r3" {
		t.Fatalf("AtMatch: got %+v", vs)
	}
}

func TestMerge(t *testing.T) {
	base := Builtins()
	if len(base) != 4 {
		t.Fatalf("Builtins() = %d entries", len(base))
	}
	wantKinds := []string{"persistent-oscillation", "route-leak", "multi-hop-blackhole", "stale-route"}
	for i, c := range base {
		if c.Kind != wantKinds[i] {
			t.Errorf("builtin[%d].Kind = %q, want %q", i, c.Kind, wantKinds[i])
		}
	}

	repl := mustCompile(t, BuiltinRouteLeakSource)
	extra := mustCompile(t, `property avoid { kind "via-leak"; assert never reachable via 65009; }`)
	merged := Merge([]*Compiled{extra, repl})
	if len(merged) != 5 {
		t.Fatalf("merged = %d entries", len(merged))
	}
	if merged[1] != repl {
		t.Error("custom route-leak did not replace the builtin in place")
	}
	if merged[4] != extra {
		t.Error("new-kind custom property did not append")
	}
	for i, want := range wantKinds {
		if merged[i].Kind != want {
			t.Errorf("merged[%d].Kind = %q, want %q", i, merged[i].Kind, want)
		}
	}
}

// TestBundledSourcesMatchBuiltins pins that the embedded .prop files ARE
// the builtin route-leak and stale-route oracles: loading them as
// operator properties swaps in equal definitions, which is what makes
// the golden-parity guarantee hold by construction.
func TestBundledSourcesMatchBuiltins(t *testing.T) {
	base := Builtins()
	leak := mustCompile(t, BuiltinRouteLeakSource)
	stale := mustCompile(t, BuiltinStaleRouteSource)
	if leak.Source() != base[1].Source() || leak.Kind != "route-leak" {
		t.Errorf("route_leak.prop compiles to %q, builtin is %q", leak.Source(), base[1].Source())
	}
	if stale.Source() != base[3].Source() || stale.Kind != "stale-route" {
		t.Errorf("stale_route.prop compiles to %q, builtin is %q", stale.Source(), base[3].Source())
	}
	if !leak.boundaryWhen {
		t.Error("bundled route-leak lost its boundary guard flag")
	}
}

package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"dice/internal/bgp"
	"dice/internal/netaddr"
	"dice/internal/prop"
)

// The Driver is exercised here against a scripted in-memory Fleet: no
// sockets, no fabric, no exploration. What each test asserts used to be
// visible only through whole-fleet parity runs.

// fakeWave scripts what one witness prefix does to a fakeShadows.
type fakeWave struct {
	reach   []string // nodes that install the witness on UPDATE
	sticky  []string // of those, nodes the WITHDRAW fails to clean
	steps   int      // deliveries each wave reports
	pending int      // deliveries the UPDATE wave leaves in flight
}

// fakeFleet is a Fleet whose shadows follow a per-prefix script and log
// every call the driver makes.
type fakeFleet struct {
	nodes   []string
	explore []TargetOutcome
	waves   map[string]fakeWave // by witness prefix
	// next is every node's forwarding decision for any prefix: "local"
	// delivers, another name forwards there, absent means no covering route.
	next map[string]string
	// lose makes the next n Propagate calls for "<prefix> withdraw=<bool>"
	// fail with ErrShadowLost.
	lose map[string]int

	sets []*fakeShadows
	log  []string
}

func (f *fakeFleet) Nodes() []string              { return f.nodes }
func (f *fakeFleet) NodeAS(string) (uint16, bool) { return 0, false }
func (f *fakeFleet) logf(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf(format, args...))
}

func (f *fakeFleet) Explore(targets []ResolvedTarget) ([]TargetOutcome, error) {
	if len(targets) != len(f.explore) {
		return nil, fmt.Errorf("fake fleet scripted %d targets, asked for %d", len(f.explore), len(targets))
	}
	return f.explore, nil
}

func (f *fakeFleet) OpenShadows() (Shadows, error) {
	s := &fakeShadows{f: f, id: len(f.sets), best: map[string]map[string]int{}}
	f.sets = append(f.sets, s)
	f.logf("open %d", s.id)
	return s, nil
}

type fakeShadows struct {
	f      *fakeFleet
	id     int
	closed bool
	tokens int
	best   map[string]map[string]int // node → prefix → route token
}

func (s *fakeShadows) Query(nodes []string, p netaddr.Prefix, wantAt bool) (map[string]RouteView, error) {
	s.f.logf("query %d %s %s", s.id, p, strings.Join(nodes, ","))
	out := map[string]RouteView{}
	for _, n := range nodes {
		var v RouteView
		if tok, ok := s.best[n][p.String()]; ok {
			v.Token = tok
		}
		switch next, ok := s.f.next[n]; {
		case !ok:
		case next == "local":
			v.Hop = ForwardHop{HasCovering: true, Local: true}
		default:
			v.Hop = ForwardHop{HasCovering: true, NextPeer: next}
		}
		out[n] = v
	}
	return out, nil
}

func (s *fakeShadows) Propagate(from, to string, u *bgp.Update, maxSteps int) (prop.Phase, error) {
	withdraw := len(u.NLRI) == 0
	p := append(append([]netaddr.Prefix{}, u.NLRI...), u.Withdrawn...)[0].String()
	s.f.logf("propagate %d %s %s→%s withdraw=%t", s.id, p, from, to, withdraw)
	if key := fmt.Sprintf("%s withdraw=%t", p, withdraw); s.f.lose[key] > 0 {
		s.f.lose[key]--
		return prop.Phase{}, fmt.Errorf("agent restarted: %w", ErrShadowLost)
	}
	w := s.f.waves[p]
	for _, n := range w.reach {
		if s.best[n] == nil {
			s.best[n] = map[string]int{}
		}
		switch {
		case !withdraw:
			s.tokens++
			s.best[n][p] = s.tokens
		case !slices.Contains(w.sticky, n):
			delete(s.best[n], p)
		}
	}
	ph := prop.Phase{Steps: w.steps, Waves: []int{w.steps}}
	if !withdraw {
		ph.Pending = w.pending
	}
	return ph, nil
}

func (s *fakeShadows) Close() {
	s.closed = true
	s.f.logf("close %d", s.id)
}

func witnessFor(prefix string) *bgp.Update {
	return &bgp.Update{NLRI: []netaddr.Prefix{netaddr.MustParsePrefix(prefix)}}
}

// fakeRound builds a driver and a fleet for one scripted round: targets
// are (x←p, scenario i) pairs whose outcomes each carry the listed
// witness prefixes as validated findings.
func fakeRound(t *testing.T, opts FederatedOptions, perTarget ...[]string) (*Driver, *fakeFleet) {
	t.Helper()
	tp := &Topology{Name: "fake"}
	f := &fakeFleet{
		nodes: []string{"a", "b", "c", "p", "x"},
		waves: map[string]fakeWave{},
		next:  map[string]string{"a": "local", "b": "a", "c": "b"},
		lose:  map[string]int{},
	}
	for i, prefixes := range perTarget {
		tp.Explore = append(tp.Explore, ExploreTarget{Node: "x", Peer: "p", Scenario: fmt.Sprintf("s%d", i)})
		r := &Result{}
		var refs []WitnessRef
		for k, p := range prefixes {
			r.Findings = append(r.Findings, Finding{Kind: "route-leak", Validated: true})
			refs = append(refs, WitnessRef{Finding: k, Update: witnessFor(p)})
			if _, ok := f.waves[p]; !ok {
				f.waves[p] = fakeWave{reach: []string{"b", "c"}, steps: 3}
			}
		}
		f.explore = append(f.explore, TargetOutcome{Result: r, Witnesses: refs})
	}
	d, err := NewDriver(tp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, f
}

func (f *fakeFleet) count(prefix string) int {
	n := 0
	for _, l := range f.log {
		if strings.HasPrefix(l, prefix) {
			n++
		}
	}
	return n
}

func (f *fakeFleet) allClosed(t *testing.T) {
	t.Helper()
	for _, s := range f.sets {
		if !s.closed {
			t.Errorf("shadow set %d never closed", s.id)
		}
	}
}

// TestDriverDedupAndCap: identical witnesses from two targets of the
// same edge inject once; the cap counts the rest as skipped and the
// driver never touches a shadow on their behalf.
func TestDriverDedupAndCap(t *testing.T) {
	d, f := fakeRound(t, FederatedOptions{MaxWitnesses: 2},
		[]string{"10.1.0.0/16", "10.2.0.0/16"},
		[]string{"10.2.0.0/16", "10.3.0.0/16", "10.4.0.0/16"})
	res, err := d.Round(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.WitnessesInjected != 2 || res.WitnessesSkipped != 2 {
		t.Errorf("injected %d skipped %d, want 2 and 2 (five witnesses, one duplicate, cap 2)",
			res.WitnessesInjected, res.WitnessesSkipped)
	}
	if res.PropagationSteps != 2*2*3 {
		t.Errorf("propagation steps = %d, want 12 (two witnesses, two waves of 3)", res.PropagationSteps)
	}
	for _, l := range f.log {
		if strings.Contains(l, "10.3.0.0/16") || strings.Contains(l, "10.4.0.0/16") {
			t.Errorf("shadow call for a capped witness: %s", l)
		}
	}
	// Witnesses land on the findings they came from, and only there.
	first, second := res.Targets[0].Result.Findings, res.Targets[1].Result.Findings
	if first[0].Witness == nil || first[1].Witness == nil {
		t.Error("kept witnesses not attached to their findings")
	}
	for i, fd := range second {
		if fd.Witness != nil {
			t.Errorf("target 1 finding %d carries a witness; it was a duplicate or capped", i)
		}
	}
	f.allClosed(t)
}

// TestDriverSeedSkipVsFail: a missing seed skips a defaulted target,
// visibly, and fails the round for an explicit one.
func TestDriverSeedSkipVsFail(t *testing.T) {
	noSeed := &SeedUnavailableError{Err: errors.New("nothing observed")}
	for _, explicit := range []bool{false, true} {
		tp := &Topology{Name: "fake", Edges: []TopoEdge{{A: "x", B: "p"}}}
		if explicit {
			tp.Explore = []ExploreTarget{{Node: "x", Peer: "p"}, {Node: "p", Peer: "x"}}
		}
		d, err := NewDriver(tp, FederatedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		f := &fakeFleet{explore: []TargetOutcome{{Err: noSeed}, {Result: &Result{}}}}
		res, err := d.Round(f)
		if explicit {
			if !errors.Is(err, noSeed.Err) || !strings.Contains(err.Error(), "x/p") {
				t.Errorf("explicit target without a seed: err = %v, want the round to fail naming x/p", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Targets[0].Err != noSeed.Err || res.Targets[0].Result != nil || res.Targets[1].Result == nil {
			t.Errorf("defaulted target without a seed should skip visibly: %+v", res.Targets)
		}
	}
}

// TestDriverGroupsDisjointPrefixes: consecutive pairwise-disjoint
// witnesses share one shadow set; an overlapping prefix starts the next.
func TestDriverGroupsDisjointPrefixes(t *testing.T) {
	d, f := fakeRound(t, FederatedOptions{},
		[]string{"10.1.0.0/16", "10.2.0.0/16", "10.1.5.0/24", "10.3.0.0/16"})
	if _, err := d.Round(f); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, l := range f.log {
		if strings.HasPrefix(l, "open") || strings.HasPrefix(l, "close") ||
			(strings.HasPrefix(l, "propagate") && strings.HasSuffix(l, "withdraw=false")) {
			got = append(got, l)
		}
	}
	want := []string{
		"open 0",
		"propagate 0 10.1.0.0/16 p→x withdraw=false",
		"propagate 0 10.2.0.0/16 p→x withdraw=false",
		"close 0",
		"open 1",
		"propagate 1 10.1.5.0/24 p→x withdraw=false",
		"propagate 1 10.3.0.0/16 p→x withdraw=false",
		"close 1",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shadow lifecycle:\n got %q\nwant %q", got, want)
	}
}

// TestDriverRetiresDirtySet: a wave that does not converge stops that
// witness's collection, flags oscillation, retires the set, and the
// next witness of the group gets a fresh one.
func TestDriverRetiresDirtySet(t *testing.T) {
	d, f := fakeRound(t, FederatedOptions{}, []string{"10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"})
	f.waves["10.2.0.0/16"] = fakeWave{reach: []string{"b"}, steps: 7, pending: 4}
	res, err := d.Round(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.sets) != 2 {
		t.Fatalf("opened %d shadow sets, want 2 (the dirty one retired)", len(f.sets))
	}
	if n := f.count("query 0 10.2.0.0/16"); n != 1 {
		t.Errorf("non-converging witness was queried %d times, want only the pre-query", n)
	}
	if n := f.count("propagate 0 10.2.0.0/16"); n != 1 {
		t.Errorf("non-converging witness ran %d waves, want the UPDATE wave alone", n)
	}
	if f.count("propagate 0 10.3.0.0/16") != 0 || f.count("propagate 1 10.3.0.0/16") != 2 {
		t.Errorf("the witness after a dirty set must run on a fresh one:\n%s", strings.Join(f.log, "\n"))
	}
	osc := 0
	for _, v := range res.Violations {
		if v.Kind == "persistent-oscillation" && v.Prefix.String() == "10.2.0.0/16" {
			osc++
		}
	}
	if osc != 1 {
		t.Errorf("%d persistent-oscillation violations for the non-converging witness, want 1", osc)
	}
	if want := 3 + 3 + 7 + 3 + 3; res.PropagationSteps != want {
		t.Errorf("propagation steps = %d, want %d", res.PropagationSteps, want)
	}
	f.allClosed(t)
}

// TestDriverReplaysLostShadows: ErrShadowLost replays the witness alone
// on fresh shadows, discards the partial run's steps, gives the rest of
// the group a fresh set — and gives up after maxWitnessReplays.
func TestDriverReplaysLostShadows(t *testing.T) {
	d, f := fakeRound(t, FederatedOptions{}, []string{"10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"})
	f.lose["10.2.0.0/16 withdraw=true"] = 1 // after its UPDATE wave already ran 3 steps
	res, err := d.Round(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.sets) != 3 {
		t.Errorf("opened %d shadow sets, want 3 (shared, the replay's own, the rest of the group)", len(f.sets))
	}
	if want := 3 * 2 * 3; res.PropagationSteps != want {
		t.Errorf("propagation steps = %d, want %d — the lost attempt's steps must not count", res.PropagationSteps, want)
	}
	if f.count("propagate 0 10.2.0.0/16") != 2 || f.count("propagate 1 10.2.0.0/16") != 2 || f.count("propagate 2 10.3.0.0/16") != 2 {
		t.Errorf("replay or regroup ran on the wrong set:\n%s", strings.Join(f.log, "\n"))
	}
	f.allClosed(t)

	d, f = fakeRound(t, FederatedOptions{}, []string{"10.1.0.0/16"})
	f.lose["10.1.0.0/16 withdraw=false"] = 100
	_, err = d.CheckWitness(f, WitnessSpec{Node: "x", Peer: "p", Update: witnessFor("10.1.0.0/16")})
	if !errors.Is(err, ErrShadowLost) {
		t.Fatalf("err = %v, want ErrShadowLost once the replay budget is spent", err)
	}
	if want := 1 + maxWitnessReplays; len(f.sets) != want {
		t.Errorf("a witness that keeps losing its shadows opened %d sets, want %d", len(f.sets), want)
	}
	f.allClosed(t)
}

// TestDriverAsksExcludedNodesOnlyOnTrace: the explored node and the
// sending peer are in no fan-out; each is asked once, and only when a
// forward trace walks into it.
func TestDriverAsksExcludedNodesOnlyOnTrace(t *testing.T) {
	asked := func(f *fakeFleet) map[string]int {
		n := map[string]int{}
		for _, l := range f.log {
			if strings.HasPrefix(l, "query") {
				for _, node := range strings.Split(l[strings.LastIndex(l, " ")+1:], ",") {
					n[node]++
				}
			}
		}
		return n
	}
	d, f := fakeRound(t, FederatedOptions{}, []string{"10.1.0.0/16"})
	if _, err := d.Round(f); err != nil {
		t.Fatal(err)
	}
	if n := asked(f); n["x"] != 0 || n["p"] != 0 {
		t.Errorf("no trace reaches x or p, yet they were asked %d and %d times", n["x"], n["p"])
	}

	// Now c forwards into the explored node, which forwards to the peer.
	d, f = fakeRound(t, FederatedOptions{}, []string{"10.1.0.0/16"})
	f.next["b"], f.next["c"], f.next["x"], f.next["p"] = "x", "x", "p", "local"
	sh, _ := f.OpenShadows()
	facts, err := d.CollectFacts(f, sh, WitnessSpec{Node: "x", Peer: "p", Update: witnessFor("10.1.0.0/16")})
	if err != nil {
		t.Fatal(err)
	}
	if n := asked(f); n["x"] != 1 || n["p"] != 1 {
		t.Errorf("two traces walk through x and p; asked %d and %d times, want once each", n["x"], n["p"])
	}
	var paths []string
	for _, n := range facts.Nodes {
		paths = append(paths, strings.Join(n.Path, ">"))
	}
	sort.Strings(paths)
	if want := []string{"b>x>p", "c>x>p"}; !reflect.DeepEqual(paths, want) {
		t.Errorf("trace paths = %v, want %v", paths, want)
	}
	// a,b,c are asked in each of the three fan-outs at most; a installed
	// nothing, so the after-withdraw fan-out leaves it out.
	if n := asked(f); n["a"] != 2 || n["b"] != 3 || n["c"] != 3 {
		t.Errorf("fan-out counts a=%d b=%d c=%d, want 2, 3, 3", n["a"], n["b"], n["c"])
	}
}

// TestDriverStaleAfterWithdraw: a witness route that survives its own
// retraction is the stale-route fact, attributed by route identity.
func TestDriverStaleAfterWithdraw(t *testing.T) {
	d, f := fakeRound(t, FederatedOptions{}, []string{"10.1.0.0/16"})
	f.waves["10.1.0.0/16"] = fakeWave{reach: []string{"b", "c"}, sticky: []string{"c"}, steps: 2}
	sh, _ := f.OpenShadows()
	facts, err := d.CollectFacts(f, sh, WitnessSpec{Node: "x", Peer: "p", Update: witnessFor("10.1.0.0/16")})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(facts.Stale, []string{"c"}) {
		t.Errorf("stale = %v, want [c]", facts.Stale)
	}
}

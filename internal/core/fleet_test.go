package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
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

func (f *fakeFleet) OpenShadows() Shadows {
	s := &fakeShadows{f: f, id: len(f.sets), best: map[string]map[string]uint64{}}
	f.sets = append(f.sets, s)
	f.logf("open %d", s.id)
	return s
}

type fakeShadows struct {
	f      *fakeFleet
	id     int
	closed bool
	tokens uint64
	best   map[string]map[string]uint64 // node → prefix → route token
}

func (s *fakeShadows) view(n, p string) RouteView {
	v := RouteView{Token: s.best[n][p]}
	switch next, ok := s.f.next[n]; {
	case !ok:
	case next == "local":
		v.Hop = ForwardHop{HasCovering: true, Local: true}
	default:
		v.Hop = ForwardHop{HasCovering: true, NextPeer: next}
	}
	return v
}

func (s *fakeShadows) Query(node string, p netaddr.Prefix) (RouteView, error) {
	s.f.logf("query %d %s %s", s.id, p, node)
	return s.view(node, p.String()), nil
}

// Propagate plays each member's scripted wave: the injection target and
// every scripted reach node are touched. A member scripted to lose its
// shadows fails the whole call, as a lost set does.
func (s *fakeShadows) Propagate(group []Injection, maxSteps int, wantAt bool) ([]Wave, error) {
	waves := make([]Wave, len(group))
	for i, in := range group {
		withdraw := len(in.Update.NLRI) == 0
		p := in.Watch.String()
		s.f.logf("propagate %d %s %s→%s withdraw=%t", s.id, p, in.From, in.To, withdraw)
		if key := fmt.Sprintf("%s withdraw=%t", p, withdraw); s.f.lose[key] > 0 {
			s.f.lose[key]--
			return nil, fmt.Errorf("agent restarted: %w", ErrShadowLost)
		}
		w := s.f.waves[p]
		touched := map[string]RouteChange{}
		for _, n := range append([]string{in.To}, w.reach...) {
			touched[n] = RouteChange{Before: s.view(n, p).Token}
		}
		for _, n := range w.reach {
			if s.best[n] == nil {
				s.best[n] = map[string]uint64{}
			}
			switch {
			case !withdraw:
				s.tokens++
				s.best[n][p] = s.tokens
			case !slices.Contains(w.sticky, n):
				delete(s.best[n], p)
			}
		}
		for n, ch := range touched {
			ch.After = s.view(n, p)
			touched[n] = ch
		}
		waves[i] = Wave{Phase: prop.Phase{Steps: w.steps, Waves: []int{w.steps}}, Touched: touched}
		if !withdraw {
			waves[i].Pending = w.pending
		}
	}
	return waves, nil
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

// TestDriverGroupsDisjointPrefixes: a witness joins the first group its
// prefixes are disjoint from — one shadow set and one wave per group —
// and the outcomes still come back in spec order.
func TestDriverGroupsDisjointPrefixes(t *testing.T) {
	prefixes := []string{"10.1.0.0/16", "10.2.0.0/16", "10.1.5.0/24", "10.3.0.0/16"}
	d, f := fakeRound(t, FederatedOptions{}, prefixes)
	var specs []WitnessSpec
	for i, p := range prefixes {
		f.waves[p] = fakeWave{reach: []string{"b", "c"}, steps: i + 1}
		specs = append(specs, WitnessSpec{Node: "x", Peer: "p", Update: witnessFor(p)})
	}
	outs, err := d.CheckWitnesses(f, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Steps != 2*(i+1) {
			t.Errorf("outcome %d reports %d steps, want %d: outcomes out of spec order", i, out.Steps, 2*(i+1))
		}
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
		"propagate 0 10.3.0.0/16 p→x withdraw=false",
		"close 0",
		"open 1",
		"propagate 1 10.1.5.0/24 p→x withdraw=false",
		"close 1",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shadow lifecycle:\n got %q\nwant %q", got, want)
	}
}

// TestDriverRetiresDirtySet: a member that does not converge spoils the
// merged attempt — its set is retired and every member re-runs alone, in
// spec order, the non-converging one flagged there. A group of one is its
// own solo run: flagged on the spot, nothing re-run.
func TestDriverRetiresDirtySet(t *testing.T) {
	d, f := fakeRound(t, FederatedOptions{}, []string{"10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"})
	f.waves["10.2.0.0/16"] = fakeWave{reach: []string{"b"}, steps: 7, pending: 4}
	res, err := d.Round(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.sets) != 4 {
		t.Fatalf("opened %d shadow sets, want 4 (the merged attempt, then one per member)", len(f.sets))
	}
	if n := f.count("propagate 0 "); n != 3 {
		t.Errorf("the merged attempt ran %d waves, want the three UPDATE waves alone:\n%s", n, strings.Join(f.log, "\n"))
	}
	if f.count("propagate 1 10.1.0.0/16") != 2 || f.count("propagate 2 10.2.0.0/16") != 1 || f.count("propagate 3 10.3.0.0/16") != 2 {
		t.Errorf("members must re-run alone in spec order, the non-converging one stopping after its UPDATE wave:\n%s", strings.Join(f.log, "\n"))
	}
	if n := f.count("query"); n != 2 {
		t.Errorf("%d queries, want 2: untouched a, once per converging solo run's traces", n)
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
		t.Errorf("propagation steps = %d, want %d — the discarded attempt's steps must not count", res.PropagationSteps, want)
	}
	f.allClosed(t)

	d, f = fakeRound(t, FederatedOptions{}, []string{"10.2.0.0/16"})
	f.waves["10.2.0.0/16"] = fakeWave{reach: []string{"b"}, steps: 7, pending: 4}
	outs, err := d.CheckWitnesses(f, []WitnessSpec{{Node: "x", Peer: "p", Update: witnessFor("10.2.0.0/16")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.sets) != 1 || f.count("propagate") != 1 || outs[0].Steps != 7 {
		t.Errorf("a group of one is its own solo run: %d sets, %d waves, %d steps; want 1, 1, 7", len(f.sets), f.count("propagate"), outs[0].Steps)
	}
	f.allClosed(t)
}

// TestDriverReplaysLostShadows: ErrShadowLost discards the merged attempt
// and every member re-runs alone on fresh shadows, each within
// maxWitnessReplays; the lost attempts' steps are discarded.
func TestDriverReplaysLostShadows(t *testing.T) {
	d, f := fakeRound(t, FederatedOptions{}, []string{"10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"})
	f.lose["10.2.0.0/16 withdraw=true"] = 2 // once merged, after the UPDATE waves ran; once more alone
	res, err := d.Round(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.sets) != 5 {
		t.Errorf("opened %d shadow sets, want 5 (merged, 10.1 alone, 10.2 alone twice, 10.3 alone)", len(f.sets))
	}
	if want := 3 * 2 * 3; res.PropagationSteps != want {
		t.Errorf("propagation steps = %d, want %d — the lost attempts' steps must not count", res.PropagationSteps, want)
	}
	if f.count("propagate 1 10.1.0.0/16") != 2 || f.count("propagate 2 10.2.0.0/16") != 2 ||
		f.count("propagate 3 10.2.0.0/16") != 2 || f.count("propagate 4 10.3.0.0/16") != 2 {
		t.Errorf("replays ran on the wrong sets:\n%s", strings.Join(f.log, "\n"))
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

// TestDriverAsksExcludedNodesOnlyOnTrace: nobody is polled around the
// waves. A node the wave touched — the explored node always is — answers
// from the wave's own report; an untouched one, the sending peer
// included, is asked once, and only when a forward trace walks into it.
func TestDriverAsksExcludedNodesOnlyOnTrace(t *testing.T) {
	asked := func(f *fakeFleet) map[string]int {
		n := map[string]int{}
		for _, l := range f.log {
			if strings.HasPrefix(l, "query") {
				n[l[strings.LastIndex(l, " ")+1:]]++
			}
		}
		return n
	}
	d, f := fakeRound(t, FederatedOptions{}, []string{"10.1.0.0/16"})
	if _, err := d.Round(f); err != nil {
		t.Fatal(err)
	}
	if n := asked(f); !reflect.DeepEqual(n, map[string]int{"a": 1}) {
		t.Errorf("both traces end at untouched a and reach neither x nor p; asked %v, want a once", n)
	}

	// Now c forwards into the explored node, which forwards to the peer.
	d, f = fakeRound(t, FederatedOptions{}, []string{"10.1.0.0/16"})
	f.next["b"], f.next["c"], f.next["x"], f.next["p"] = "x", "x", "p", "local"
	sh := f.OpenShadows()
	facts, err := d.CollectFacts(f, sh, []WitnessSpec{{Node: "x", Peer: "p", Update: witnessFor("10.1.0.0/16")}})
	if err != nil {
		t.Fatal(err)
	}
	if n := asked(f); !reflect.DeepEqual(n, map[string]int{"p": 1}) {
		t.Errorf("two traces walk through touched x into untouched p; asked %v, want p once", n)
	}
	var paths []string
	for _, n := range facts[0].Nodes {
		paths = append(paths, strings.Join(n.Path, ">"))
	}
	sort.Strings(paths)
	if want := []string{"b>x>p", "c>x>p"}; !reflect.DeepEqual(paths, want) {
		t.Errorf("trace paths = %v, want %v", paths, want)
	}
}

// TestDriverStaleAfterWithdraw: a witness route that survives its own
// retraction is the stale-route fact, attributed by route identity —
// whether the retraction reached the node and left the route (c) or never
// reached it at all (b).
func TestDriverStaleAfterWithdraw(t *testing.T) {
	d, f := fakeRound(t, FederatedOptions{}, []string{"10.1.0.0/16", "10.2.0.0/16"})
	f.waves["10.1.0.0/16"] = fakeWave{reach: []string{"b", "c"}, sticky: []string{"c"}, steps: 2}
	sh := f.OpenShadows()
	facts, err := d.CollectFacts(f, &untouchedOnWithdraw{sh.(*fakeShadows), "b"}, []WitnessSpec{
		{Node: "x", Peer: "p", Update: witnessFor("10.1.0.0/16")},
		{Node: "x", Peer: "p", Update: witnessFor("10.2.0.0/16")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(facts[0].Stale, []string{"b", "c"}) || facts[1].Stale != nil {
		t.Errorf("stale = %v and %v, want [b c] and none", facts[0].Stale, facts[1].Stale)
	}
}

// untouchedOnWithdraw drops one node from the first member's WITHDRAW
// wave report, and keeps that node's route: a retraction that never got
// there.
type untouchedOnWithdraw struct {
	*fakeShadows
	node string
}

func (s *untouchedOnWithdraw) Propagate(group []Injection, maxSteps int, wantAt bool) ([]Wave, error) {
	p := group[0].Watch.String()
	kept, had := s.best[s.node][p]
	waves, err := s.fakeShadows.Propagate(group, maxSteps, wantAt)
	if err == nil && len(group[0].Update.NLRI) == 0 && had {
		s.best[s.node][p] = kept
		delete(waves[0].Touched, s.node)
	}
	return waves, err
}

// TestDriverParallelPool: the group pool hands indices out in ascending
// order and takes none once one has failed. Its error is the lowest
// failed index's, even when a higher index fails first; the running
// indices still finish.
func TestDriverParallelPool(t *testing.T) {
	var (
		mu   sync.Mutex
		took []int
	)
	d := &Driver{Opts: FederatedOptions{Workers: 1}}
	err := d.parallel(10, func(i int) error {
		took = append(took, i)
		if i == 3 {
			return errors.New("three")
		}
		return nil
	})
	if err == nil || err.Error() != "three" || !reflect.DeepEqual(took, []int{0, 1, 2, 3}) {
		t.Errorf("one worker: err %v, took %v; want three after 0 1 2 3", err, took)
	}

	d.Opts.Workers = 2
	took = nil
	twoFailed := make(chan struct{})
	err = d.parallel(10, func(i int) error {
		mu.Lock()
		took = append(took, i)
		mu.Unlock()
		switch i {
		case 0:
			<-twoFailed // still running when the higher index fails
			return errors.New("zero")
		case 1:
			return nil
		case 2:
			defer close(twoFailed)
			return errors.New("two")
		}
		return nil
	})
	sort.Ints(took)
	if err == nil || err.Error() != "zero" || !reflect.DeepEqual(took, []int{0, 1, 2}) {
		t.Errorf("two workers: err %v, took %v; want zero after 0 1 2", err, took)
	}
	if got := d.parallel(0, func(int) error { return errors.New("ran") }); got != nil {
		t.Errorf("an empty pool ran fn: %v", got)
	}
}

package router

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/config"
	"dice/internal/filter"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/sym"
)

// This file is the differential net under the exploration entry points:
// whatever an instrumented run does to a checkpoint clone — RIB, emitted
// messages, counters, disposition — must be exactly what the live node
// does when the same message arrives on the wire. The concrete path
// (Deliver → session → onUpdate) is the truth.

// parityHub is a checkpoint with four peers (one of them down), import
// policies that reject, demote (local_pref) and rewrite, and export
// policies over prefix, path and community — so a single explored message
// can be rejected after having been accepted, lose best-path selection to
// another peer's candidate, or spread to some peers and not others.
const parityHub = `
	router id 10.0.0.100; local as 65000;
	network 10.100.0.0/16;
	filter a_in {
		if net ~ 192.168.0.0/16 then reject;
		if net.len > 28 then reject;
		if community (65000, 666) then reject;
		if net ~ 10.0.0.0/8{16,24} && med >= 1000 then { set local_pref 50; accept; }
		if origin = incomplete then { set med 7; add community (65000, 99); accept; }
		if bgp_path.origin = 64999 then reject;
		if local_pref > 500 then reject;
		accept;
	}
	filter b_in {
		if net ~ 10.0.0.0/8 then { set local_pref 100; accept; }
		if bgp_path.len > 3 then reject;
		accept;
	}
	filter b_out {
		if net ~ 10.7.0.0/16 then reject;
		if community (65000, 99) then { set med 5; accept; }
		accept;
	}
	filter c_out {
		if community (65535, 65281) then reject;
		if net.len > 24 then reject;
		if bgp_path.origin = 65010 then reject;
		accept;
	}
	peer a { remote 10.0.0.1 as 65001; import filter a_in; }
	peer b { remote 10.0.0.2 as 65002; import filter b_in; export filter b_out; }
	peer c { remote 10.0.0.3 as 65003; export filter c_out; }
	peer d { remote 10.0.0.4 as 65004; }`

var parityNow = time.Unix(1e9, 0)

func parityAttrs(nextHop string, med uint32, comms []uint32, path ...uint16) bgp.Attrs {
	return bgp.Attrs{
		HasOrigin: true, Origin: bgp.OriginIGP,
		ASPath:     bgp.ASPath{{Type: bgp.ASSequence, ASNs: path}},
		HasNextHop: true, NextHop: ip(nextHop),
		HasMED: med != 0, MED: med,
		Communities: comms,
	}
}

// newParityCheckpoint builds the hub through the live path only: sessions
// a, b, c Established (d stays down), the table loaded by Deliver. Several
// prefixes hold candidates from more than one peer.
func newParityCheckpoint(t testing.TB) *Router {
	t.Helper()
	cfg, err := config.Parse(parityHub)
	if err != nil {
		t.Fatal(err)
	}
	hub := New("hub", cfg, netsim.NewCaptureSink())
	for _, n := range []string{"a", "b", "c"} {
		hub.Session(n).RestoreEstablished(0, 0)
	}
	load := []struct {
		peer   string
		prefix string
		attrs  bgp.Attrs
	}{
		{"a", "10.1.0.0/16", parityAttrs("10.0.0.1", 0, nil, 65001, 65010)},
		{"b", "10.1.0.0/16", parityAttrs("10.0.0.2", 0, nil, 65002, 65011, 65010)},
		{"c", "10.1.0.0/16", parityAttrs("10.0.0.3", 0, nil, 65003, 65012, 65013, 65010)},
		{"a", "10.2.0.0/16", parityAttrs("10.0.0.1", 2000, nil, 65001)}, // demoted to local_pref 50
		{"b", "10.2.0.0/16", parityAttrs("10.0.0.2", 0, nil, 65002, 65020)},
		{"a", "10.3.3.0/24", parityAttrs("10.0.0.1", 0, []uint32{bgp.MakeCommunity(65001, 3)}, 65001)},
		{"c", "10.3.3.0/24", parityAttrs("10.0.0.3", 0, nil, 65003, 65030, 65031)},
		{"b", "172.20.0.0/16", parityAttrs("10.0.0.2", 9, nil, 65002)},
		{"c", "10.200.0.0/16", parityAttrs("10.0.0.3", 0, []uint32{bgp.CommunityNoExport}, 65003, 64801)},
		{"a", "10.7.0.0/16", parityAttrs("10.0.0.1", 0, nil, 65001)}, // a's only-candidate space; last, so it is a's seed
	}
	for _, l := range load {
		wire, err := bgp.Encode(&bgp.Update{Attrs: l.attrs, NLRI: []netaddr.Prefix{pfx(l.prefix)}})
		if err != nil {
			t.Fatal(err)
		}
		hub.Deliver(parityNow, l.peer, wire)
	}
	if got := hub.RIB().Routes(); got != len(load)+1 {
		t.Fatalf("checkpoint holds %d routes, want %d", got, len(load)+1)
	}
	return hub
}

// parityInput is one fuzz input: every field any of the input models
// marks symbolic, already reduced to the models' well-formedness
// assumptions (the engine never generates an input outside them).
type parityInput struct {
	peer      string
	addr      uint32
	bits      uint8
	origin    uint8
	med, lp   uint32
	originAS  uint16
	community uint32
	cow       bool // fork CloneCOW overlays (as exploration does) or full Clones
}

func (in parityInput) prefix() netaddr.Prefix {
	return netaddr.PrefixFrom(netaddr.Addr(in.addr)&netaddr.Mask(int(in.bits)), int(in.bits))
}

// parityModel is one exploration entry point with the test's own
// statement of its input model: the engine assignment for an input and
// the message a live peer would have to send for the node to process the
// same thing. These are deliberately written out here, independent of the
// router's materialization code.
type parityModel struct {
	name    string
	model   *InputModel[*bgp.Update]
	explore func(*Router, *concolic.RunContext, string, *bgp.Update) Outcome
	env     func(parityInput) []uint64
	message func(in parityInput, peerAS uint16, seed *bgp.Update) *bgp.Update
}

var parityModels = []parityModel{
	{
		name:    "update",
		model:   &UpdateInputs,
		explore: (*Router).ExploreUpdate,
		env: func(in parityInput) []uint64 {
			return []uint64{uint64(in.addr), uint64(in.bits), uint64(in.origin), uint64(in.med), uint64(in.lp)}
		},
		message: func(in parityInput, _ uint16, seed *bgp.Update) *bgp.Update {
			attrs := seed.Attrs.Clone()
			attrs.Origin = in.origin
			attrs.HasMED, attrs.MED = true, in.med
			attrs.HasLocalPref, attrs.LocalPref = true, in.lp
			return &bgp.Update{Attrs: attrs, NLRI: []netaddr.Prefix{in.prefix()}}
		},
	},
	{
		name:    "routeleak",
		model:   &LeakInputs,
		explore: (*Router).ExploreLeak,
		env: func(in parityInput) []uint64 {
			return []uint64{uint64(in.addr), uint64(in.bits), uint64(in.originAS), uint64(in.community)}
		},
		message: func(in parityInput, peerAS uint16, seed *bgp.Update) *bgp.Update {
			attrs := seed.Attrs.Clone()
			attrs.ASPath = bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{peerAS}}}
			if in.originAS != 0 && in.originAS != peerAS {
				attrs.ASPath[0].ASNs = append(attrs.ASPath[0].ASNs, in.originAS)
			}
			if in.community != 0 && !attrs.HasCommunity(in.community) {
				attrs.Communities = append(attrs.Communities, in.community)
			}
			return &bgp.Update{Attrs: attrs, NLRI: []netaddr.Prefix{in.prefix()}}
		},
	},
	{
		name:    "withdraw",
		model:   &WithdrawInputs,
		explore: (*Router).ExploreWithdraw,
		env:     func(in parityInput) []uint64 { return []uint64{uint64(in.addr), uint64(in.bits)} },
		message: func(in parityInput, _ uint16, _ *bgp.Update) *bgp.Update {
			return &bgp.Update{Withdrawn: []netaddr.Prefix{in.prefix()}}
		},
	},
}

// ribImage renders everything the RIB holds — every candidate of every
// prefix in canonical wire form, then which one is selected — so two
// routers compare equal exactly when their routing state is the same.
func ribImage(r *Router) string {
	var b strings.Builder
	for _, c := range r.EncodeStateChunks()[1:] { // [0] is session metadata
		fmt.Fprintf(&b, "%x\n", c)
	}
	for _, rt := range r.RIB().Dump() {
		fmt.Fprintf(&b, "best %s via %s local=%v\n", rt.Prefix, rt.PeerRouterID, rt.Local)
	}
	return b.String()
}

// firstDiff names the first line on which two images differ ("" if none).
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, the live node has %q", i+1, gl, wl)
		}
	}
	return ""
}

func sinkImage(sent []netsim.CapturedMessage) string {
	var b strings.Builder
	for _, m := range sent {
		fmt.Fprintf(&b, "%s>%s %x\n", m.From, m.To, m.Data)
	}
	return b.String()
}

// sinkRecipients lists the peers a sink saw an NLRI-carrying UPDATE go
// to, and every peer it saw any UPDATE go to, both sorted.
func sinkRecipients(t *testing.T, sent []netsim.CapturedMessage) (announcedTo, notified []string) {
	t.Helper()
	for _, m := range sent {
		msg, err := bgp.Decode(m.Data)
		if err != nil {
			t.Fatalf("clone emitted an undecodable message: %v", err)
		}
		u, ok := msg.(*bgp.Update)
		if !ok {
			continue
		}
		notified = append(notified, m.To)
		if len(u.NLRI) > 0 {
			announcedTo = append(announcedTo, m.To)
		}
	}
	sort.Strings(announcedTo)
	sort.Strings(notified)
	return announcedTo, notified
}

// recordRun runs handler once under a recording RunContext, with model's
// inputs declared at env's values: the seed run of a one-run exploration
// (Engine.RunOnce replays concretely and records nothing).
func recordRun[S any](model *InputModel[S], env []uint64, handler concolic.Handler) {
	eng := concolic.NewEngine(handler, concolic.Options{MaxRuns: 1})
	for id, in := range model.Inputs {
		eng.Var(in.Name, in.Width, env[id])
	}
	eng.Explore()
}

// checkHandlerParity runs one input through every model: the
// instrumented entry point on one clone of the checkpoint, the same
// message through the live Deliver path on another.
func checkHandlerParity(t *testing.T, ckpt *Router, in parityInput) {
	t.Helper()
	fork := func() (*Router, *netsim.CaptureSink) {
		sink := netsim.NewCaptureSink()
		if in.cow {
			return ckpt.CloneCOW(sink), sink
		}
		return ckpt.Clone(sink), sink
	}
	seed := ckpt.LastAnnounced(in.peer)
	peerAS := ckpt.cfg.FindPeer(in.peer).AS
	for _, m := range parityModels {
		msg := m.message(in, peerAS, seed)
		wire, err := bgp.Encode(msg)
		if err != nil {
			continue // not expressible on the wire: no live counterpart
		}

		explored, exploredSink := fork()
		var out Outcome
		recordRun(m.model, m.env(in), func(rc *concolic.RunContext) any {
			out = m.explore(explored, rc, in.peer, seed)
			return nil
		})
		env := sym.Env{}
		for id, v := range m.env(in) {
			env[id] = v
		}

		live, liveSink := fork()
		live.Deliver(parityNow, in.peer, wire)
		liveSent := liveSink.Drain(nil)

		tag := fmt.Sprintf("%s model, peer %s, %+v", m.name, in.peer, in)
		if out.Prefix != in.prefix() {
			t.Errorf("%s: explored prefix %s, the input names %s", tag, out.Prefix, in.prefix())
		}
		if got := m.model.Materialize(seed, peerAS, m.model.Named(env)); !reflect.DeepEqual(got, msg) {
			t.Errorf("%s: the model materializes %+v, the input is %+v", tag, got, msg)
		}
		if d := firstDiff(ribImage(explored), ribImage(live)); d != "" {
			t.Errorf("%s: RIB after the explored run differs from the live node's: %s", tag, d)
		}
		if d := firstDiff(sinkImage(exploredSink.Drain(nil)), sinkImage(liveSent)); d != "" {
			t.Errorf("%s: emissions differ: %s", tag, d)
		}
		if got, want := explored.Counters(), live.Counters(); got != want {
			t.Errorf("%s: counters differ: explored %+v, live %+v", tag, got, want)
		}
		// Disposition: an announcement accepted, a withdrawal that removed
		// one of the peer's routes.
		accepted := live.Counters().RoutesAccepted == ckpt.Counters().RoutesAccepted+1
		if len(msg.NLRI) == 0 {
			accepted = live.RIB().Routes() < ckpt.RIB().Routes()
		}
		if out.Accepted != accepted {
			t.Errorf("%s: explored run reports accepted=%v, the live node %v", tag, out.Accepted, accepted)
		}
		if got, want := out.Change.New, live.RIB().Best(in.prefix()); (got == nil) != (want == nil) || got != nil && got.PeerRouterID != want.PeerRouterID {
			t.Errorf("%s: explored run reports new best %v, the live node selects %v", tag, got, want)
		}
		announcedTo, notified := sinkRecipients(t, liveSent)
		if !reflect.DeepEqual(out.SpreadTo, announcedTo) || !reflect.DeepEqual(out.Notified, notified) {
			t.Errorf("%s: explored run reports spread to %v and %v notified, the live node announced to %v and sent to %v",
				tag, out.SpreadTo, out.Notified, announcedTo, notified)
		}

		if len(msg.NLRI) > 0 {
			concrete, concreteSink := fork()
			concrete.HandleUpdateConcrete(in.peer, msg)
			if d := firstDiff(ribImage(concrete), ribImage(live)); d != "" {
				t.Errorf("%s: RIB after HandleUpdateConcrete differs from the live node's: %s", tag, d)
			}
			if d := firstDiff(sinkImage(concreteSink.Drain(nil)), sinkImage(liveSent)); d != "" {
				t.Errorf("%s: HandleUpdateConcrete's emissions differ: %s", tag, d)
			}
			if got, want := concrete.Counters(), live.Counters(); got != want {
				t.Errorf("%s: counters differ: HandleUpdateConcrete %+v, live %+v", tag, got, want)
			}
		}
	}
	checkFilterParity(t, ckpt, in)
}

// checkFilterParity runs every configured filter over the input twice —
// a concrete Subject under ConcreteBrancher, and the same route with every
// field any model marks symbolic lifted, under a recording RunContext —
// and wants the same verdict and the same attribute rewrite.
func checkFilterParity(t *testing.T, ckpt *Router, in parityInput) {
	t.Helper()
	seed := ckpt.LastAnnounced(in.peer)
	base := seed.Attrs.Clone()
	base.Origin = in.origin
	base.HasMED, base.MED = true, in.med
	base.HasLocalPref, base.LocalPref = true, in.lp
	base.ASPath = bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{65001, in.originAS}}}
	withComm := base.Clone()
	if in.community != 0 && !withComm.HasCommunity(in.community) {
		withComm.Communities = append(withComm.Communities, in.community)
	}

	names := make([]string, 0, len(ckpt.cfg.Filters))
	for n := range ckpt.cfg.Filters {
		names = append(names, n)
	}
	sort.Strings(names)

	eng := concolic.NewEngine(func(rc *concolic.RunContext) any {
		lenV := rc.Input("len")
		lifted := filter.SubjectFromRoute(in.prefix(), &base)
		lifted.NetAddr = concolic.And(rc.Input("addr"), concolic.Concrete(uint64(uint32(netaddr.Mask(int(lenV.C)))), 32))
		lifted.NetLen = lenV
		lifted.Origin = rc.Input("origin")
		lifted.MED = rc.Input("med")
		lifted.LocalPref = rc.Input("lp")
		lifted.OriginAS = rc.Input("origin_as")
		lifted.SymCommunity = rc.Input("community")
		for _, n := range names {
			f := ckpt.cfg.Filters[n]
			cv := filter.Run(f, filter.SubjectFromRoute(in.prefix(), &withComm), filter.ConcreteBrancher{})
			rv := filter.Run(f, lifted, rc)
			ca, ra := withComm.Clone(), withComm.Clone()
			cv.Apply(&ca)
			rv.Apply(&ra)
			if cv.Disposition != rv.Disposition || !reflect.DeepEqual(ca, ra) {
				t.Errorf("filter %s on %+v: concrete verdict %v → %+v, recorded verdict %v → %+v", n, in, cv.Disposition, ca, rv.Disposition, ra)
			}
		}
		return nil
	}, concolic.Options{MaxRuns: 1}) // the recording seed run alone
	eng.Var("addr", 32, uint64(in.addr))
	eng.Var("len", 8, uint64(in.bits))
	eng.Var("origin", 8, uint64(in.origin))
	eng.Var("med", 32, uint64(in.med))
	eng.Var("lp", 32, uint64(in.lp))
	eng.Var("origin_as", 16, uint64(in.originAS))
	eng.Var("community", 32, uint64(in.community))
	eng.Explore()
}

// parityCorpus seeds the fuzz (and runs as a plain test): the two
// divergences known when the net was written, then one input per
// interesting region of the checkpoint.
var parityCorpus = []struct {
	name string
	in   parityInput
}{
	// (1) a had 10.7.0.0/16 accepted; the re-announcement carries a
	// community a_in rejects: the live node withdraws a's route.
	{"rejected re-announcement withdraws", parityInput{peer: "a", addr: 0x0a070000, bits: 16, community: 65000<<16 | 666, lp: 100}},
	{"rejected by local_pref withdraws", parityInput{peer: "a", addr: 0x0a070000, bits: 16, lp: 501}},
	// (2) a holds the best 10.1.0.0/16; re-announced with med >= 1000 it
	// is demoted to local_pref 50 and b's candidate becomes best.
	{"demoted below another candidate", parityInput{peer: "a", addr: 0x0a010000, bits: 16, med: 1000, lp: 100, originAS: 65010}},
	{"new best spreads selectively", parityInput{peer: "a", addr: 0x0a090000, bits: 16, lp: 100, originAS: 65010}},
	{"more specific than c_out admits", parityInput{peer: "a", addr: 0x0a090900, bits: 26, lp: 100}},
	{"no-export community", parityInput{peer: "a", addr: 0x0a090000, bits: 16, lp: 100, community: bgp.CommunityNoExport}},
	{"incomplete origin is rewritten", parityInput{peer: "a", addr: 0x0a090000, bits: 16, origin: 2, lp: 100}},
	{"withdraw of a multi-candidate best", parityInput{peer: "a", addr: 0x0a010000, bits: 16, lp: 100}},
	{"withdraw of a non-best candidate", parityInput{peer: "c", addr: 0x0a010000, bits: 16, lp: 100}},
	{"withdraw of an only candidate", parityInput{peer: "b", addr: 0xac140000, bits: 16, lp: 100, cow: true}},
	{"from b, rewritten local_pref", parityInput{peer: "b", addr: 0x0a020000, bits: 16, lp: 7, originAS: 65020, cow: true}},
	{"from c, unfiltered", parityInput{peer: "c", addr: 0x0a030300, bits: 24, lp: 100, originAS: 65031, cow: true}},
	{"host bits set", parityInput{peer: "a", addr: 0x0a0703ff, bits: 20, lp: 100, cow: true}},
	{"default route", parityInput{peer: "c", addr: 0xffffffff, bits: 0, lp: 100}},
}

func TestHandlerParityCorpus(t *testing.T) {
	ckpt := newParityCheckpoint(t)
	before := ribImage(ckpt)
	for _, c := range parityCorpus {
		t.Run(strings.ReplaceAll(c.name, " ", "-"), func(t *testing.T) { checkHandlerParity(t, ckpt, c.in) })
	}
	if ribImage(ckpt) != before {
		t.Fatal("a run leaked into the checkpoint")
	}
}

// FuzzHandlerParity searches for an input on which an exploration entry
// point and the live node disagree.
func FuzzHandlerParity(f *testing.F) {
	peers := []string{"a", "b", "c"}
	for _, c := range parityCorpus {
		in := c.in
		f.Add(uint8(sort.SearchStrings(peers, in.peer)), in.addr, in.bits, in.origin, in.med, in.lp, in.originAS, in.community, in.cow)
	}
	ckpt := newParityCheckpoint(f)
	f.Fuzz(func(t *testing.T, peer uint8, addr uint32, bits, origin uint8, med, lp uint32, originAS uint16, community uint32, cow bool) {
		in := parityInput{
			peer: peers[int(peer)%len(peers)],
			addr: addr, bits: bits % 33, origin: origin % 3, med: med, lp: lp,
			originAS: originAS, community: community, cow: cow,
		}
		if in.originAS == ckpt.cfg.LocalAS {
			in.originAS++ // the leak model assumes the peer's own loop prevention
		}
		checkHandlerParity(t, ckpt, in)
	})
}

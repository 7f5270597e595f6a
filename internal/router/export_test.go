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
)

// shareHub exports every best-route change to peers of every kind: an
// iBGP peer, three eBGP peers with no export policy, one whose export sets
// MED, one whose export adds a community, one whose export rejects, and
// one whose session is down.
const shareHub = `
	router id 10.0.0.100; local as 65000;
	filter med_out { set med 40; accept; }
	filter comm_out { add community (65000, 77); accept; }
	filter reject_out { reject; }
	peer src { remote 10.0.0.1 as 65001; }
	peer ibgp { remote 10.0.0.2 as 65000; }
	peer e1 { remote 10.0.0.3 as 65003; }
	peer e2 { remote 10.0.0.4 as 65004; }
	peer e3 { remote 10.0.0.5 as 65005; }
	peer med { remote 10.0.0.6 as 65006; export filter med_out; }
	peer comm { remote 10.0.0.7 as 65007; export filter comm_out; }
	peer rej { remote 10.0.0.8 as 65008; export filter reject_out; }
	peer down { remote 10.0.0.9 as 65009; }`

// sent is one message a wireRecorder saw.
type sent struct {
	to   string
	wire []byte
}

// wireRecorder is a transport that keeps the very slices it is handed,
// uncopied, so a test can tell shared encodings from separate ones.
type wireRecorder struct{ msgs []sent }

func (w *wireRecorder) Send(_, to string, data []byte) { w.msgs = append(w.msgs, sent{to, data}) }

func (w *wireRecorder) byPeer() map[string][]byte {
	out := map[string][]byte{}
	for _, m := range w.msgs {
		out[m.to] = m.wire
	}
	return out
}

func newShareHub(t *testing.T) (*Router, *wireRecorder) {
	t.Helper()
	cfg, err := config.Parse(shareHub)
	if err != nil {
		t.Fatal(err)
	}
	rec := &wireRecorder{}
	hub := New("hub", cfg, rec)
	for _, pc := range cfg.Peers {
		if pc.Name != "down" {
			hub.Session(pc.Name).RestoreEstablished(0, 0)
		}
	}
	seed := parityAttrs("10.0.0.1", 3, []uint32{bgp.MakeCommunity(65001, 9)}, 65001, 65010)
	wire, err := bgp.Encode(&bgp.Update{Attrs: seed, NLRI: []netaddr.Prefix{pfx("10.5.0.0/16")}})
	if err != nil {
		t.Fatal(err)
	}
	hub.Deliver(parityNow, "src", wire)
	rec.msgs = nil
	return hub, rec
}

// referenceExport is what the hub must send peer when attrs become its
// best route for prefix, computed here from RFC 4271 alone: split
// horizon, the peer's export verdict applied to a copy, and on eBGP the
// hub's AS prepended, LOCAL_PREF removed and the next hop set to the hub.
// A route that is not exported is a withdrawal.
func referenceExport(t *testing.T, hub *Router, peer string, prefix netaddr.Prefix, attrs bgp.Attrs) []byte {
	t.Helper()
	pc := hub.cfg.FindPeer(peer)
	msg := &bgp.Update{Withdrawn: []netaddr.Prefix{prefix}}
	if attrs.ASPath[0].ASNs[0] != pc.AS {
		f := pc.Export
		if f == nil {
			f = filter.AcceptAll
		}
		if v := filter.Run(f, filter.SubjectFromRoute(prefix, &attrs), filter.ConcreteBrancher{}); v.Disposition == filter.Accept {
			out := attrs.Clone()
			v.Apply(&out)
			if pc.AS != hub.cfg.LocalAS {
				first := append([]uint16{hub.cfg.LocalAS}, out.ASPath[0].ASNs...)
				out.ASPath = append(bgp.ASPath{{Type: bgp.ASSequence, ASNs: first}}, out.ASPath[1:]...)
				out.HasLocalPref, out.LocalPref = false, 0
				out.HasNextHop, out.NextHop = true, hub.cfg.RouterID
			}
			msg = &bgp.Update{Attrs: out, NLRI: []netaddr.Prefix{prefix}}
		}
	}
	wire, err := bgp.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestExportSharingMatchesPerPeerEncode: whether a change arrives on the
// wire or through an exploration entry point under a recording context,
// every peer receives exactly the bytes an export computed for it alone
// would encode — and the peers whose verdict modifies nothing receive one
// shared encoding per session kind.
func TestExportSharingMatchesPerPeerEncode(t *testing.T) {
	in := parityInput{peer: "src", addr: 0x0a090000, bits: 16, origin: bgp.OriginEGP, med: 7, lp: 120, originAS: 65020, community: bgp.MakeCommunity(65001, 5)}
	type path struct {
		name string
		run  func(hub *Router, msg *bgp.Update) []string // returns the peers the run reports it announced to (nil: not reported)
		msg  func(hub *Router) *bgp.Update
	}
	paths := []path{{
		name: "Deliver",
		msg: func(*Router) *bgp.Update {
			return &bgp.Update{Attrs: parityAttrs("10.0.0.1", 7, []uint32{bgp.MakeCommunity(65001, 5)}, 65001, 65020), NLRI: []netaddr.Prefix{in.prefix()}}
		},
		run: func(hub *Router, msg *bgp.Update) []string {
			wire, err := bgp.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			hub.Deliver(parityNow, "src", wire)
			return nil
		},
	}}
	for _, m := range parityModels {
		if m.name == "withdraw" {
			continue
		}
		m := m
		paths = append(paths, path{
			name: m.name + " model",
			msg: func(hub *Router) *bgp.Update {
				return m.message(in, hub.cfg.FindPeer("src").AS, hub.LastAnnounced("src"))
			},
			run: func(hub *Router, _ *bgp.Update) []string {
				seed := hub.LastAnnounced("src")
				var out Outcome
				recordRun(m.model, m.env(in), func(rc *concolic.RunContext) any {
					out = m.explore(hub, rc, "src", seed)
					return nil
				})
				return out.SpreadTo
			},
		})
	}
	for _, p := range paths {
		t.Run(strings.ReplaceAll(p.name, " ", "-"), func(t *testing.T) {
			hub, rec := newShareHub(t)
			msg := p.msg(hub)
			spread := p.run(hub, msg)
			if best := hub.RIB().Best(in.prefix()); best == nil || best.PeerRouterID != ip("10.0.0.1") {
				t.Fatalf("the announcement is not the hub's best route: %v", best)
			}

			got := rec.byPeer()
			if len(got) != len(rec.msgs) {
				t.Fatalf("a peer received more than one message: %d messages to %d peers", len(rec.msgs), len(got))
			}
			var peers, announced []string
			for _, pc := range hub.cfg.Peers {
				if pc.Name == "src" || pc.Name == "down" {
					continue
				}
				peers = append(peers, pc.Name)
				want := referenceExport(t, hub, pc.Name, in.prefix(), msg.Attrs)
				if !reflect.DeepEqual(got[pc.Name], want) {
					t.Errorf("%s received %x, want %x", pc.Name, got[pc.Name], want)
				}
				if !isWithdrawal(want) {
					announced = append(announced, pc.Name)
				}
			}
			sort.Strings(peers)
			var recipients []string
			for _, m := range rec.msgs {
				recipients = append(recipients, m.to)
			}
			if !reflect.DeepEqual(recipients, peers) {
				t.Errorf("sent to %v in that order, want each of %v once in name order", recipients, peers)
			}
			sort.Strings(announced)
			if spread != nil && !reflect.DeepEqual(spread, announced) {
				t.Errorf("the run reports spread to %v, the reference announces to %v", spread, announced)
			}

			same := func(a, b string) bool { return &got[a][0] == &got[b][0] }
			if !same("e1", "e2") || !same("e1", "e3") {
				t.Error("plain eBGP peers got separate encodings of one export")
			}
			if same("e1", "ibgp") || same("e1", "med") || same("e1", "comm") || same("med", "comm") {
				t.Error("peers with different exports share an encoding")
			}
		})
	}
}

func isWithdrawal(wire []byte) bool {
	m, err := bgp.Decode(wire)
	return err == nil && len(m.(*bgp.Update).NLRI) == 0
}

// TestExportCountersOnlyCountWhatWentOut: a best route whose export
// cannot be encoded (an AS_PATH segment of 256 ASNs) reaches only the
// peer whose policy rejects it, as a withdrawal, and the sessions'
// UpdatesOut / MsgsOut and the router's UpdatesSent count that message
// alone; an encodable one moves all three by one per peer.
func TestExportCountersOnlyCountWhatWentOut(t *testing.T) {
	asns := make([]uint16, 256)
	for i := range asns {
		asns[i] = uint16(64000 + i)
	}
	cases := []struct {
		name string
		path bgp.ASPath
		sent int
	}{
		{"unencodable", bgp.ASPath{{Type: bgp.ASSequence, ASNs: asns}}, 1},
		{"encodable", bgp.ASPath{{Type: bgp.ASSequence, ASNs: asns[:3]}}, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			hub, rec := newShareHub(t)
			type counts struct{ updates, msgs uint64 }
			before := map[string]counts{}
			for _, ps := range hub.order {
				before[ps.peer.Name] = counts{ps.sess.UpdatesOut, ps.sess.MsgsOut}
			}
			sentBefore := hub.Counters().UpdatesSent
			rt := testRoute("10.66.0.0/16")
			rt.Attrs.ASPath = c.path
			hub.propagate("src", hub.loc.Insert(rt), nil, filter.ConcreteBrancher{}, nil)

			if len(rec.msgs) != c.sent {
				t.Fatalf("%d messages reached the transport, want %d", len(rec.msgs), c.sent)
			}
			if got := hub.Counters().UpdatesSent - sentBefore; got != uint64(c.sent) {
				t.Errorf("UpdatesSent moved by %d, want %d", got, c.sent)
			}
			received := map[string]uint64{}
			for _, m := range rec.msgs {
				received[m.to]++
			}
			for _, ps := range hub.order {
				name := ps.peer.Name
				b, n := before[name], received[name]
				if ps.sess.UpdatesOut != b.updates+n || ps.sess.MsgsOut != b.msgs+n {
					t.Errorf("%s: UpdatesOut %d → %d, MsgsOut %d → %d", name, b.updates, ps.sess.UpdatesOut, b.msgs, ps.sess.MsgsOut)
				}
			}
		})
	}
}

// TestExportAllocationsPerPeer: a delivered announcement that changes the
// best route costs each further eBGP peer with a plain export policy only
// the transport's copy of the shared encoding (plus amortized growth of
// the event queue), not an encoding of its own.
func TestExportAllocationsPerPeer(t *testing.T) {
	allocs := func(k int) float64 {
		var b strings.Builder
		b.WriteString("router id 10.0.0.100; local as 65000;\npeer src { remote 10.0.0.1 as 65001; }\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, "peer p%d { remote 10.1.0.%d as %d; }\n", i, i+1, 65100+i)
		}
		cfg, err := config.Parse(b.String())
		if err != nil {
			t.Fatal(err)
		}
		net := netsim.New(parityNow)
		hub := New("hub", cfg, net)
		if err := net.AddNode("hub", hub); err != nil {
			t.Fatal(err)
		}
		for _, pc := range cfg.Peers {
			hub.Session(pc.Name).RestoreEstablished(0, 0)
			if pc.Name == "src" {
				continue
			}
			if err := net.AddNode(pc.Name, netsim.ReceiverFunc(func(time.Time, string, []byte) {})); err != nil {
				t.Fatal(err)
			}
			if err := net.Connect("hub", pc.Name, time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		var wires [2][]byte
		for i := range wires {
			attrs := parityAttrs("10.0.0.1", uint32(i+1), nil, 65001, 65010)
			if wires[i], err = bgp.Encode(&bgp.Update{Attrs: attrs, NLRI: []netaddr.Prefix{pfx("10.5.0.0/16")}}); err != nil {
				t.Fatal(err)
			}
		}
		n := 0
		return testing.AllocsPerRun(200, func() {
			before := hub.Counters().UpdatesSent
			hub.Deliver(net.Now(), "src", wires[n%2])
			n++
			if got := hub.Counters().UpdatesSent - before; got != uint64(k) {
				t.Fatalf("the announcement went to %d of %d peers", got, k)
			}
			net.Run(0)
		})
	}
	two, eight := allocs(2), allocs(8)
	t.Logf("allocations per announcement: %v with 2 peers, %v with 8", two, eight)
	if eight-two > 12 {
		t.Fatalf("6 more eBGP peers cost %v more allocations (k=2: %v, k=8: %v), want ≤ 12", eight-two, two, eight)
	}
}

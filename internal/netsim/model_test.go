package netsim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dice/internal/netsim"
	"dice/internal/netsim/netsimtest"
)

func start() time.Time { return time.Unix(1e9, 0) }

// network is what the tests drive: a netsim.Network or the model.
type network interface {
	netsim.Transport
	AddNode(name string, r netsim.Receiver) error
	Connect(a, b string, latency time.Duration) error
	Run(limit int) int
}

// logged attaches a receiver to net under name that appends every
// delivery to log as "time to←from data", then calls then (if not nil).
func logged(net network, name string, log *[]string, then func(from string, data []byte)) {
	net.AddNode(name, netsim.ReceiverFunc(func(now time.Time, from string, data []byte) {
		*log = append(*log, fmt.Sprintf("%v %s←%s %s", now.Sub(start()), name, from, data))
		if then != nil {
			then(from, data)
		}
	}))
}

// TestNextPeeksWithoutDelivering: the model's Next reports the delivery
// Step makes next, in (time, send order), and moves nothing.
func TestNextPeeksWithoutDelivering(t *testing.T) {
	m := netsimtest.New(start())
	var log []string
	logged(m, "a", &log, nil)
	logged(m, "b", &log, nil)
	logged(m, "c", &log, nil)
	m.Connect("a", "b", 2*time.Millisecond)
	m.Connect("a", "c", time.Millisecond)
	if _, ok := m.Next(); ok {
		t.Fatal("an empty queue has a next delivery")
	}
	m.Send("a", "b", []byte("x"))
	m.Send("a", "c", []byte("y"))
	if e, ok := m.Next(); !ok || e.To != "c" || e.From != "a" || string(e.Data) != "y" || e.At != time.Millisecond {
		t.Fatalf("Next = %+v, %v; the 1 ms link delivers first", e, ok)
	}
	if m.Pending() != 2 || len(log) != 0 {
		t.Fatal("Next delivered something")
	}
	m.Step()
	if e, _ := m.Next(); e.To != "b" {
		t.Fatalf("Next after one step = %+v, want b", e)
	}
}

// TestQueueOrderUnderInterleaving: deliveries come out by (time, send
// order) however sends and single deliveries (Run(1)) interleave, on the
// model and on the Network alike, held to the schedule replayed by hand.
func TestQueueOrderUnderInterleaving(t *testing.T) {
	type stepper interface {
		network
		Now() time.Time
	}
	nets := map[string]stepper{"model": netsimtest.New(start()), "network": netsim.New(start())}
	for name, n := range nets {
		var got []string
		for _, node := range []string{"a", "b"} {
			n.AddNode(node, netsim.ReceiverFunc(func(time.Time, string, []byte) {}))
		}
		n.AddNode("c", netsim.ReceiverFunc(func(_ time.Time, from string, data []byte) {
			got = append(got, fmt.Sprintf("%s:%s", from, data))
		}))
		n.Connect("a", "c", 3*time.Millisecond)
		n.Connect("b", "c", time.Millisecond)
		for i := 0; i < 40; i++ {
			from := "a"
			if i%3 == 0 {
				from = "b"
			}
			n.Send(from, "c", []byte{byte('A' + i)})
			if i%7 == 6 {
				n.Run(1) // the model's one Step; one delivery off the Network's loop
			}
		}
		n.Run(0)
		if len(got) != 40 {
			t.Fatalf("%s delivered %d, want 40", name, len(got))
		}
		// Replay the schedule by hand: each step takes the earliest pending
		// (due time, send sequence).
		type pend struct {
			due time.Duration
			seq int
			msg string
		}
		var (
			queue []pend
			now   time.Duration
			want  []string
		)
		take := func() {
			best := 0
			for i, p := range queue {
				if p.due < queue[best].due || p.due == queue[best].due && p.seq < queue[best].seq {
					best = i
				}
			}
			if queue[best].due > now {
				now = queue[best].due
			}
			want = append(want, queue[best].msg)
			queue = append(queue[:best], queue[best+1:]...)
		}
		for i := 0; i < 40; i++ {
			from, lat := "a", 3*time.Millisecond
			if i%3 == 0 {
				from, lat = "b", time.Millisecond
			}
			queue = append(queue, pend{now + lat, i, fmt.Sprintf("%s:%c", from, 'A'+i)})
			if i%7 == 6 {
				take()
			}
		}
		for len(queue) > 0 {
			take()
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s deliveries\ngot  %v\nwant %v", name, got, want)
		}
		if n.Now() != start().Add(now) {
			t.Fatalf("%s clock %v, want %v", name, n.Now(), start().Add(now))
		}
	}
}

// TestNetworkMatchesModel: on random meshes whose nodes forward what they
// hear — ties in time everywhere, 0 ms links included — the Network's
// stepped loop makes the model's deliveries, in the model's order, at the
// model's times.
func TestNetworkMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		run := func(net network) []string {
			rng := rand.New(rand.NewSource(seed))
			nodes := 3 + rng.Intn(5)
			name := func(i int) string { return string(rune('a' + i)) }
			var log []string
			peers := make([][]string, nodes)
			for i := range nodes {
				logged(net, name(i), &log, func(from string, data []byte) {
					if len(data) < 4 {
						for _, p := range peers[i] {
							net.Send(name(i), p, []byte(string(data)+name(i)))
						}
					}
				})
			}
			for i := range nodes {
				for j := i + 1; j < nodes; j++ {
					if rng.Intn(2) == 0 {
						net.Connect(name(i), name(j), time.Duration(rng.Intn(3))*time.Millisecond)
						peers[i], peers[j] = append(peers[i], name(j)), append(peers[j], name(i))
					}
				}
			}
			for k := range 6 {
				i := rng.Intn(nodes)
				for _, p := range peers[i] {
					net.Send(name(i), p, []byte{byte('0' + k)})
				}
			}
			net.Run(0)
			return log
		}
		want := run(netsimtest.New(start()))
		if got := run(netsim.New(start())); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: network made %d deliveries, model %d\nnetwork %v\nmodel   %v", seed, len(got), len(want), got, want)
		}
	}
}

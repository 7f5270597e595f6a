package netsim

import (
	"fmt"
	"testing"
	"time"
)

type recorder struct {
	got []string
}

func (r *recorder) Deliver(now time.Time, from string, data []byte) {
	r.got = append(r.got, fmt.Sprintf("%s:%s", from, data))
}

func start() time.Time { return time.Unix(1e9, 0) }

func TestBasicDelivery(t *testing.T) {
	n := New(start())
	a, b := &recorder{}, &recorder{}
	if err := n.AddNode("a", a); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("b", b); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("a", "b", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Send("a", "b", []byte("hello"))
	if got := n.Run(0); got != 1 {
		t.Fatalf("deliveries = %d", got)
	}
	if len(b.got) != 1 || b.got[0] != "a:hello" {
		t.Fatalf("b got %v", b.got)
	}
	if len(a.got) != 0 {
		t.Fatal("a should receive nothing")
	}
	// Clock advanced by link latency.
	if n.Now() != start().Add(time.Millisecond) {
		t.Fatalf("clock = %v", n.Now())
	}
}

func TestDuplicateNodeAndLink(t *testing.T) {
	n := New(start())
	n.AddNode("a", &recorder{})
	if err := n.AddNode("a", &recorder{}); err == nil {
		t.Error("duplicate node accepted")
	}
	n.AddNode("b", &recorder{})
	n.Connect("a", "b", 0)
	if err := n.Connect("b", "a", 0); err == nil {
		t.Error("duplicate link accepted")
	}
	if err := n.Connect("a", "zzz", 0); err == nil {
		t.Error("link to unknown node accepted")
	}
}

func TestNoLinkDrops(t *testing.T) {
	n := New(start())
	a, b := &recorder{}, &recorder{}
	n.AddNode("a", a)
	n.AddNode("b", b)
	n.Send("a", "b", []byte("x")) // no link: dropped
	if n.Run(0) != 0 || len(b.got) != 0 {
		t.Fatal("message crossed a missing link")
	}
}

func TestFIFOOrderingAtSameTime(t *testing.T) {
	n := New(start())
	b := &recorder{}
	n.AddNode("a", &recorder{})
	n.AddNode("b", b)
	n.Connect("a", "b", time.Millisecond)
	for i := 0; i < 10; i++ {
		n.Send("a", "b", []byte{byte('0' + i)})
	}
	n.Run(0)
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("a:%c", '0'+i)
		if b.got[i] != want {
			t.Fatalf("order broken at %d: %v", i, b.got)
		}
	}
}

func TestLatencyOrdering(t *testing.T) {
	n := New(start())
	c := &recorder{}
	n.AddNode("a", &recorder{})
	n.AddNode("b", &recorder{})
	n.AddNode("c", c)
	n.Connect("a", "c", 10*time.Millisecond)
	n.Connect("b", "c", time.Millisecond)
	n.Send("a", "c", []byte("slow"))
	n.Send("b", "c", []byte("fast"))
	n.Run(0)
	if c.got[0] != "b:fast" || c.got[1] != "a:slow" {
		t.Fatalf("latency ordering wrong: %v", c.got)
	}
}

func TestRunUntil(t *testing.T) {
	n := New(start())
	b := &recorder{}
	n.AddNode("a", &recorder{})
	n.AddNode("b", b)
	n.Connect("a", "b", 5*time.Millisecond)
	n.Send("a", "b", []byte("1"))

	// Deadline before delivery: nothing arrives, clock at deadline.
	if got := n.RunUntil(start().Add(2 * time.Millisecond)); got != 0 {
		t.Fatalf("early deliveries = %d", got)
	}
	if n.Now() != start().Add(2*time.Millisecond) {
		t.Fatalf("clock = %v", n.Now())
	}
	if got := n.RunUntil(start().Add(10 * time.Millisecond)); got != 1 {
		t.Fatalf("deliveries = %d", got)
	}
	if n.Pending() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestStats(t *testing.T) {
	n := New(start())
	n.AddNode("a", &recorder{})
	n.AddNode("b", &recorder{})
	n.Connect("a", "b", 0)
	n.Send("a", "b", []byte("xyz"))
	n.Send("a", "b", []byte("pq"))
	st := n.Stats("a", "b")
	if st.Messages != 2 || st.Bytes != 5 {
		t.Fatalf("stats: %+v", st)
	}
	if st := n.Stats("b", "a"); st.Messages != 0 {
		t.Fatalf("reverse stats: %+v", st)
	}
}

func TestCaptureSinkStandalone(t *testing.T) {
	sink := NewCaptureSink()
	var tr Transport = sink
	tr.Send("clone", "peer", []byte("explore"))
	if sink.Count() != 1 {
		t.Fatal("capture failed")
	}
	msgs := sink.Messages()
	if msgs[0].From != "clone" || msgs[0].To != "peer" {
		t.Fatalf("capture meta: %+v", msgs[0])
	}
	// Mutating the returned slice's data must not corrupt the sink copy...
	msgs[0].Data[0] = 'X'
	if string(sink.Messages()[0].Data) != "Xxplore" {
		// Data is shared per message (documented snapshot of slice, not
		// deep copy) — the sink captured its own copy of the original.
	}
}

// TestCaptureSinkDrain: Drain hands over what was captured since the
// last Drain and leaves the sink empty, so a long-lived clone never
// re-copies its history; a drained buffer is the caller's, and the sink
// reusing its own never reaches into it.
func TestCaptureSinkDrain(t *testing.T) {
	sink := NewCaptureSink()
	sink.Send("clone", "p", []byte("one"))
	sink.Send("clone", "q", []byte("two"))
	first := sink.Drain(nil)
	if len(first) != 2 || first[0].To != "p" || string(first[1].Data) != "two" {
		t.Fatalf("first drain: %+v", first)
	}
	if sink.Count() != 0 || len(sink.Drain(nil)) != 0 {
		t.Fatal("a drained sink still holds messages")
	}
	sink.Send("clone", "r", []byte("three"))
	if next := sink.Drain(nil); len(next) != 1 || next[0].To != "r" {
		t.Fatalf("second drain: %+v", next)
	}
	if first[0].To != "p" || string(first[0].Data) != "one" {
		t.Fatal("a later capture overwrote a drained message")
	}
	sink.Send("clone", "s", []byte("four"))
	if again := sink.Drain(first[:0]); len(again) != 1 || again[0].To != "s" || &again[0] != &first[0] {
		t.Fatalf("drain into a reused buffer: %+v", again)
	}
}

// TestNextPeeksWithoutDelivering: Next reports the delivery Step makes
// next, in queue order, and moves nothing.
func TestNextPeeksWithoutDelivering(t *testing.T) {
	n := New(start())
	b := &recorder{}
	n.AddNode("a", &recorder{})
	n.AddNode("b", b)
	n.AddNode("c", &recorder{})
	n.Connect("a", "b", 2*time.Millisecond)
	n.Connect("a", "c", time.Millisecond)
	if _, ok := n.Next(); ok {
		t.Fatal("an empty queue has a next delivery")
	}
	n.Send("a", "b", []byte("x"))
	n.Send("a", "c", []byte("y"))
	if e, ok := n.Next(); !ok || e.To != "c" || e.From != "a" || string(e.Data) != "y" || e.At != time.Millisecond {
		t.Fatalf("Next = %+v, %v; the 1 ms link delivers first", e, ok)
	}
	if n.Pending() != 2 || len(b.got) != 0 {
		t.Fatal("Next delivered something")
	}
	n.Step()
	if e, _ := n.Next(); e.To != "b" {
		t.Fatalf("Next after one step = %+v, want b", e)
	}
}

func TestDataIsolation(t *testing.T) {
	// The network must copy payloads: sender reuse of the buffer must not
	// corrupt in-flight messages.
	n := New(start())
	b := &recorder{}
	n.AddNode("a", &recorder{})
	n.AddNode("b", b)
	n.Connect("a", "b", time.Millisecond)
	buf := []byte("AAAA")
	n.Send("a", "b", buf)
	buf[0] = 'Z'
	n.Run(0)
	if b.got[0] != "a:AAAA" {
		t.Fatalf("payload corrupted: %v", b.got)
	}
}

func TestReceiverFunc(t *testing.T) {
	var got string
	r := ReceiverFunc(func(now time.Time, from string, data []byte) { got = from + ":" + string(data) })
	r.Deliver(start(), "x", []byte("y"))
	if got != "x:y" {
		t.Fatal("ReceiverFunc adapter broken")
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	n := New(start())
	sinkNode := ReceiverFunc(func(time.Time, string, []byte) {})
	n.AddNode("a", sinkNode)
	n.AddNode("b", sinkNode)
	n.Connect("a", "b", time.Microsecond)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send("a", "b", payload)
		n.Step()
	}
}

// TestSendStepAllocatesOnlyTheCopy: a message through the queue costs the
// isolation copy Send makes and nothing else — events are heap values,
// not one allocation each.
func TestSendStepAllocatesOnlyTheCopy(t *testing.T) {
	n := New(start())
	sinkNode := ReceiverFunc(func(time.Time, string, []byte) {})
	n.AddNode("a", sinkNode)
	n.AddNode("b", sinkNode)
	n.Connect("a", "b", time.Microsecond)
	payload := make([]byte, 64)
	if got := testing.AllocsPerRun(100, func() {
		n.Send("a", "b", payload)
		n.Step()
	}); got != 1 {
		t.Fatalf("Send + Step allocates %v objects, want exactly the 1 copy", got)
	}
}

// TestQueueOrderUnderInterleaving: deliveries come out by (time, send
// order) however sends and steps interleave.
func TestQueueOrderUnderInterleaving(t *testing.T) {
	n := New(start())
	c := &recorder{}
	for _, name := range []string{"a", "b", "c"} {
		if name == "c" {
			n.AddNode(name, c)
		} else {
			n.AddNode(name, &recorder{})
		}
	}
	n.Connect("a", "c", 3*time.Millisecond)
	n.Connect("b", "c", time.Millisecond)
	var want []string
	for i := 0; i < 40; i++ {
		from := "a"
		if i%3 == 0 {
			from = "b"
		}
		n.Send(from, "c", []byte{byte('A' + i)})
		if i%7 == 6 {
			n.Step()
		}
	}
	n.Run(0)
	if len(c.got) != 40 {
		t.Fatalf("delivered %d, want 40", len(c.got))
	}
	// Replay the schedule by hand: each step takes the earliest pending
	// (due time, send sequence).
	type pend struct {
		due time.Duration
		seq int
		msg string
	}
	var queue []pend
	var now time.Duration
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
	for i := range want {
		if c.got[i] != want[i] {
			t.Fatalf("delivery %d = %s, want %s\ngot  %v\nwant %v", i, c.got[i], want[i], c.got, want)
		}
	}
}

package netsim

import (
	"fmt"
	"math"
	"reflect"
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
	n.AddNode("c", &recorder{})
	if err := n.Connect("a", "c", -time.Millisecond); err == nil {
		t.Error("negative latency accepted")
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
	buf := []byte("explore")
	tr.Send("clone", "peer", buf)
	if sink.Count() != 1 {
		t.Fatal("capture failed")
	}
	// Transport's contract: Send hands the bytes over, so the sink keeps
	// the sender's bytes themselves.
	msgs := sink.Drain(nil)
	if len(msgs) != 1 || msgs[0].From != "clone" || msgs[0].To != "peer" || string(msgs[0].Data) != "explore" {
		t.Fatalf("captured %+v, want clone→peer \"explore\"", msgs)
	}
	if &msgs[0].Data[0] != &buf[0] {
		t.Error("the sink copied bytes it was handed")
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

// TestSendHandsOverBytes: the network delivers the bytes a sender handed
// it, not a copy, and one buffer handed to two peers reaches both.
func TestSendHandsOverBytes(t *testing.T) {
	n := New(start())
	var got [][]byte
	keep := ReceiverFunc(func(_ time.Time, _ string, data []byte) { got = append(got, data) })
	n.AddNode("a", &recorder{})
	n.AddNode("b", keep)
	n.AddNode("c", keep)
	n.Connect("a", "b", time.Millisecond)
	n.Connect("a", "c", time.Millisecond)
	buf := []byte("AAAA")
	n.Send("a", "b", buf)
	n.Send("a", "c", buf)
	n.Run(0)
	if len(got) != 2 || &got[0][0] != &buf[0] || &got[1][0] != &buf[0] {
		t.Fatalf("delivered %q, want the sent buffer itself, twice", got)
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
		n.Run(0)
	}
}

// TestSendStepAllocatesNothing: a message through the loop allocates
// nothing — Send keeps the bytes it is handed, events are heap values,
// not one allocation each, and the step buffer is reused.
func TestSendStepAllocatesNothing(t *testing.T) {
	n := New(start())
	sinkNode := ReceiverFunc(func(time.Time, string, []byte) {})
	n.AddNode("a", sinkNode)
	n.AddNode("b", sinkNode)
	n.Connect("a", "b", time.Microsecond)
	payload := make([]byte, 64)
	if got := testing.AllocsPerRun(100, func() {
		n.Send("a", "b", payload)
		n.Run(0)
	}); got != 0 {
		t.Fatalf("Send + Run allocates %v objects, want none", got)
	}
}

// TestDrainedBurstReleasesBuffers: a burst grows the network's queue and
// step buffers; once it has drained they are let go, while a trickle of
// traffic keeps its small ones for reuse.
func TestDrainedBurstReleasesBuffers(t *testing.T) {
	n := New(start())
	sinkNode := ReceiverFunc(func(time.Time, string, []byte) {})
	n.AddNode("a", sinkNode)
	n.AddNode("b", sinkNode)
	n.Connect("a", "b", time.Millisecond)
	payload := []byte("x")
	n.Send("a", "b", payload)
	n.Run(0)
	if cap(n.step) == 0 {
		t.Fatal("a one-message step let its buffer go")
	}
	for i := 0; i <= burstStep; i++ {
		n.Send("a", "b", payload)
	}
	if got := n.Run(0); got != burstStep+1 {
		t.Fatalf("delivered %d of %d", got, burstStep+1)
	}
	if cap(n.step) != 0 || cap(n.loop.queue.slots) != 0 || cap(n.loop.queue.heap) != 0 {
		t.Errorf("a drained burst kept step %d, slots %d, heap %d", cap(n.step), cap(n.loop.queue.slots), cap(n.loop.queue.heap))
	}
}

// TestBulkLoadKeepsBuffersAcrossBatches: a bulk load drains its batches
// with RunBatch, which keeps the buffers the first batch grew, so later
// batches reuse them; a converge before it and the load's last drain, by
// Run, leave the network holding at most burstStep of capacity.
func TestBulkLoadKeepsBuffersAcrossBatches(t *testing.T) {
	n := New(start())
	sinkNode := ReceiverFunc(func(time.Time, string, []byte) {})
	n.AddNode("a", sinkNode)
	n.AddNode("b", sinkNode)
	n.Connect("a", "b", time.Millisecond)
	payload := []byte("x")
	burst := func(k int) {
		for i := 0; i < k; i++ {
			n.Send("a", "b", payload)
		}
	}
	held := func() int {
		q := &n.loop.queue
		return max(cap(n.step), cap(q.heap), cap(q.slots), cap(q.free))
	}
	burst(4 * burstStep) // a fabric's converge
	n.Run(0)
	if held() > burstStep {
		t.Fatalf("after the converge the network holds %d of capacity", held())
	}
	const batch = 1024
	var step *Event
	var slots *Event
	for i := 0; i < 4; i++ {
		burst(batch)
		if got := n.RunBatch(); got != batch {
			t.Fatalf("batch %d: delivered %d of %d", i, got, batch)
		}
		if cap(n.step) < batch {
			t.Fatalf("batch %d: RunBatch let the step buffer go (cap %d)", i, cap(n.step))
		}
		s, q := &n.step[:1][0], &n.loop.queue.slots[:1][0]
		if i == 0 {
			step, slots = s, q
		} else if s != step || q != slots {
			t.Fatalf("batch %d regrew the buffers batch 0 grew", i)
		}
	}
	n.Run(0) // the load's last drain
	if held() > burstStep {
		t.Errorf("after the load the network holds %d of capacity, burstStep is %d", held(), burstStep)
	}
}

// TestZeroLatencyLoopEnds: a 0 ms link is legal and its lookahead is 0,
// so a step holds only events of one timestamp, and the loop still ends.
func TestZeroLatencyLoopEnds(t *testing.T) {
	links := &Links{}
	if err := links.Connect("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if err := links.Connect("b", "c", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	l := NewLoop(links)
	l.Send(0, 0, "a", "b", nil)
	l.Send(0, 0, "b", "c", nil)
	l.Send(0, 0, "b", "a", nil)
	var steps [][]time.Duration
	for l.Len() > 0 {
		var at []time.Duration
		for _, e := range l.Step(nil, math.MaxInt64) {
			at = append(at, e.At)
			if e.To == "b" && e.At == 0 {
				l.Send(e.At, 0, "b", "a", nil) // a 0 ms echo joins the next step
			}
		}
		steps = append(steps, at)
	}
	want := [][]time.Duration{{0, 0}, {0}, {time.Millisecond}}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("steps %v, want %v", steps, want)
	}
}

// TestLoopStepWindow: a step is every event within the lookahead of the
// earliest, clipped to the deadline, and nothing past either.
func TestLoopStepWindow(t *testing.T) {
	links := &Links{}
	links.Connect("a", "b", 2*time.Millisecond)
	links.Connect("a", "c", 3*time.Millisecond)
	l := NewLoop(links)
	for _, at := range []time.Duration{0, 1, 2, 3} {
		l.Send(at*time.Millisecond, 0, "a", "b", nil)
	}
	l.Send(0, 0, "a", "c", nil)
	var got []time.Duration
	for _, e := range l.Step(nil, 3*time.Millisecond) {
		got = append(got, e.At)
	}
	if want := []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond}; !reflect.DeepEqual(got, want) {
		t.Fatalf("step clipped to 3 ms = %v, want %v", got, want)
	}
	if got := l.Step(nil, 3*time.Millisecond); len(got) != 0 {
		t.Fatalf("a step past the deadline: %v", got)
	}
	if got := l.Step(nil, math.MaxInt64); len(got) != 2 || l.Len() != 0 {
		t.Fatalf("last step = %v, %d left; want the 4 and 5 ms events", got, l.Len())
	}
}

// Package netsim is an in-memory virtual network: named nodes joined by
// duplex links with configurable latency, a virtual clock, and one
// deterministic event loop. It replaces the Linux virtual interfaces of
// the paper's testbed (Figure 2).
//
// The Loop schedules every BGP message, live (Network) and shadow (core's
// relay), a step at a time: every queued event within the lookahead, the
// smallest link latency, of the earliest. A delivery's sends land a
// lookahead or more after it, behind everything queued, so delivering a
// step in order, each event at its own time, is delivering one at a time
// in (time, FIFO) order. That needs latencies ≥ 0, which Connect
// enforces; a 0 lookahead still ends, with steps of one timestamp each.
//
// Isolation for DiCE (§2.3: "DiCE intercepts the messages generated
// during exploration") is structural: exploration clones are never
// attached to the network — their transport is a CaptureSink, so whatever
// they send is recorded for the oracles and goes nowhere else.
package netsim

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Transport lets a protocol stack send bytes toward a named peer. Both
// the Network (live) and CaptureSink (exploration) implement it. Send
// hands data over: the sender never writes those bytes again, so a
// transport keeps them as they are, without a copy. A sender may hand the
// same bytes to several peers (one encoding of an UPDATE goes to every
// peer whose export policy leaves it unmodified), so neither a transport
// nor anything it hands the bytes on to writes them either.
type Transport interface {
	Send(from, to string, data []byte)
}

// Receiver is implemented by node protocol stacks.
type Receiver interface {
	// Deliver hands the node bytes that arrived from a peer at virtual
	// time now: the bytes a Transport was handed, shared and read-only.
	// Nothing writes them again, so the receiver may keep them as they are
	// (a router keeps each peer's last UPDATE so), or decode out of them
	// what it keeps.
	Deliver(now time.Time, from string, data []byte)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(now time.Time, from string, data []byte)

// Deliver implements Receiver.
func (f ReceiverFunc) Deliver(now time.Time, from string, data []byte) { f(now, from, data) }

// Event is one scheduled delivery: Data from From arrives at To at virtual
// time At. Seq orders events with the same At first in, first out. Tag is
// the scheduler's own label — a relay marks the wave an event belongs to;
// the Network leaves it 0.
type Event struct {
	At       time.Duration
	Seq      uint64
	Tag      int
	From, To string
	Data     []byte
}

// queue is a binary min-heap of events in (At, Seq) order, total because
// Seq is unique per loop. The heap holds only each event's order and the
// slot its event is stored in, so a sift moves no pointer (and pays no
// write barrier while the collector runs); the events stay put in their
// slots. A push allocates nothing beyond amortized growth of the slices.
type queue struct {
	heap  []queued
	slots []Event
	free  []int32 // vacated slots
}

// queued is one heap entry: an event's order and slot.
type queued struct {
	at   time.Duration
	seq  uint64
	slot int32
}

func (q *queue) less(i, j int) bool {
	if q.heap[i].at != q.heap[j].at {
		return q.heap[i].at < q.heap[j].at
	}
	return q.heap[i].seq < q.heap[j].seq
}

func (q *queue) push(e Event) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot, q.free = q.free[n-1], q.free[:n-1]
		q.slots[slot] = e
	} else {
		slot = int32(len(q.slots))
		q.slots = append(q.slots, e)
	}
	q.heap = append(q.heap, queued{e.At, e.Seq, slot})
	h := q.heap
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest event of a non-empty queue.
func (q *queue) pop() Event {
	h := q.heap
	last := len(h) - 1
	top := h[0]
	h[0] = h[last]
	h = h[:last]
	q.heap = h
	for i := 0; ; {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && q.less(r, child) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	e := q.slots[top.slot]
	q.slots[top.slot] = Event{} // the vacated slot must not keep the payload alive
	q.free = append(q.free, top.slot)
	return e
}

// len returns the number of queued events.
func (q *queue) len() int { return len(q.heap) }

// earliest returns the time of the earliest event of a non-empty queue.
func (q *queue) earliest() time.Duration { return q.heap[0].at }

// reset empties the queue, keeping its buffers.
func (q *queue) reset() {
	clear(q.slots)
	q.heap, q.slots, q.free = q.heap[:0], q.slots[:0], q.free[:0]
}

// Links is a link table: each link's latency under both orders of its
// endpoints, and the lookahead, the smallest. The zero value is empty.
type Links struct {
	latency   map[[2]string]time.Duration
	lookahead time.Duration
}

// Connect adds a duplex link; its latency must not be negative.
func (l *Links) Connect(a, b string, latency time.Duration) error {
	if _, dup := l.latency[[2]string{a, b}]; dup {
		return fmt.Errorf("netsim: duplicate link %s-%s", a, b)
	}
	if latency < 0 {
		return fmt.Errorf("netsim: link %s-%s has negative latency %v", a, b, latency)
	}
	if l.latency == nil {
		l.latency, l.lookahead = map[[2]string]time.Duration{}, latency
	}
	l.latency[[2]string{a, b}], l.latency[[2]string{b, a}] = latency, latency
	l.lookahead = min(l.lookahead, latency)
	return nil
}

// Loop is the event loop: a queue of events over a link table it only
// reads, and the sequence numbers that order them.
type Loop struct {
	links *Links
	queue queue
	seq   uint64
}

// NewLoop returns an empty loop over links.
func NewLoop(links *Links) *Loop { return &Loop{links: links} }

// Send queues data from→to, tagged, at time at plus the link's latency,
// and reports whether the link exists; a send over none is dropped.
func (l *Loop) Send(at time.Duration, tag int, from, to string, data []byte) bool {
	lat, ok := l.links.latency[[2]string{from, to}]
	if ok {
		l.seq++
		l.queue.push(Event{At: at + lat, Seq: l.seq, Tag: tag, From: from, To: to, Data: data})
	}
	return ok
}

// Step appends the next step to buf in delivery order: every event within
// the lookahead of the earliest, none later than until.
func (l *Loop) Step(buf []Event, until time.Duration) []Event {
	if l.queue.len() == 0 || l.queue.earliest() > until {
		return buf
	}
	first := l.queue.earliest()
	horizon := first + min(l.links.lookahead, until-first)
	for l.queue.len() > 0 && l.queue.earliest() <= horizon {
		buf = append(buf, l.queue.pop())
	}
	return buf
}

// Len returns the number of queued events.
func (l *Loop) Len() int { return l.queue.len() }

// Reset empties the queue and restarts the sequence numbers.
func (l *Loop) Reset() {
	l.queue.reset()
	l.seq = 0
}

// LinkStats counts traffic over one direction of a link.
type LinkStats struct {
	Messages uint64
	Bytes    uint64
}

// Network is the virtual network: a Loop and an executor delivering its
// steps to the nodes. Safe for concurrent Send; Run and RunUntil must be
// called from one goroutine. Virtual time runs from the epoch New was
// given; queued events carry it as an offset from there.
type Network struct {
	mu    sync.Mutex
	nodes map[string]Receiver
	stats map[[2]string]*LinkStats // by sender, receiver
	loop  Loop
	step  []Event // the step being delivered
	epoch time.Time
	now   time.Duration // since epoch
}

// New creates an empty network with the virtual clock at start.
func New(start time.Time) *Network {
	return &Network{nodes: map[string]Receiver{}, stats: map[[2]string]*LinkStats{}, loop: Loop{links: &Links{}}, epoch: start}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch.Add(n.now)
}

// AddNode attaches a receiver under a unique name.
func (n *Network) AddNode(name string, r Receiver) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[name]; dup {
		return fmt.Errorf("netsim: duplicate node %q", name)
	}
	n.nodes[name] = r
	return nil
}

// Connect links two existing nodes; the latency must not be negative.
func (n *Network) Connect(a, b string, latency time.Duration) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[a]; !ok {
		return fmt.Errorf("netsim: unknown node %q", a)
	}
	if _, ok := n.nodes[b]; !ok {
		return fmt.Errorf("netsim: unknown node %q", b)
	}
	if err := n.loop.links.Connect(a, b, latency); err != nil {
		return err
	}
	st := new([2]LinkStats)
	n.stats[[2]string{a, b}], n.stats[[2]string{b, a}] = &st[0], &st[1]
	return nil
}

// Stats returns the traffic counters for the from→to direction.
func (n *Network) Stats(from, to string) LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st := n.stats[[2]string{from, to}]; st != nil {
		return *st
	}
	return LinkStats{}
}

// Send implements Transport: it queues data, handed over, for delivery
// across the link. Sends over missing links are dropped (like an
// unplugged cable), keeping exploration safe.
func (n *Network) Send(from, to string, data []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st := n.stats[[2]string{from, to}]; st != nil {
		st.Messages++
		st.Bytes += uint64(len(data))
		n.loop.Send(n.now, 0, from, to, data)
	}
}

// Run processes events until the queue drains or limit deliveries occur
// (limit <= 0 means no limit). It returns the number of deliveries.
func (n *Network) Run(limit int) int { return n.run(limit, math.MaxInt64, false) }

// RunBatch is Run(0) between the batches of a bulk load: it drains the
// queue but keeps the buffers it grew, since the next batch grows them as
// far again. The load's last drain is a Run, which lets go of them.
func (n *Network) RunBatch() int { return n.run(0, math.MaxInt64, true) }

// RunUntil processes events with timestamps <= deadline, then advances the
// clock to the deadline.
func (n *Network) RunUntil(deadline time.Time) int { return n.run(0, deadline.Sub(n.epoch), false) }

// run is the executor: it delivers the loop's steps, none later than
// until, each event at its own time and without the lock, for a delivery
// sends. After limit deliveries (<= 0: no limit) it requeues the rest;
// having run dry by a deadline (until < MaxInt64), it moves the clock
// there. Drained, it lets go of buffers a burst grew unless keep is set.
func (n *Network) run(limit int, until time.Duration, keep bool) (count int) {
	n.mu.Lock()
	for limit <= 0 || count < limit {
		if n.step = n.loop.Step(n.step[:0], until); len(n.step) == 0 {
			if until < math.MaxInt64 {
				n.now = max(n.now, until)
			}
			break
		}
		for i, e := range n.step {
			if limit > 0 && count == limit {
				for _, rest := range n.step[i:] {
					n.loop.queue.push(rest)
				}
				break
			}
			n.now = max(n.now, e.At)
			r, now := n.nodes[e.To], n.epoch.Add(n.now)
			n.mu.Unlock()
			if r != nil {
				r.Deliver(now, e.From, e.Data)
			}
			count++
			n.mu.Lock()
		}
		clear(n.step) // the payloads are not the buffer's to keep
	}
	if !keep && n.loop.Len() == 0 && cap(n.step) > burstStep {
		n.loop.queue, n.step = queue{}, nil // a burst's buffers, kept for nothing
	}
	n.mu.Unlock()
	return count
}

// burstStep is the step capacity past which a drained Network lets go of
// its queue and step buffers. Live traffic makes steps of a few events;
// only a burst — a fabric converging, a trace replayed — grows them past
// it, and the network would otherwise keep that memory for its life.
const burstStep = 256

// Pending returns the number of queued deliveries.
func (n *Network) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.loop.Len()
}

// CapturedMessage is one message diverted during exploration.
type CapturedMessage struct {
	From, To string
	Data     []byte
}

// CaptureSink collects messages that exploration clones attempt to send.
// It implements Transport so a cloned router can be wired to it
// transparently.
type CaptureSink struct {
	mu   sync.Mutex
	msgs []CapturedMessage
}

// NewCaptureSink creates an empty sink.
func NewCaptureSink() *CaptureSink {
	return &CaptureSink{}
}

// Send implements Transport by capturing data, handed over.
func (s *CaptureSink) Send(from, to string, data []byte) {
	s.mu.Lock()
	s.msgs = append(s.msgs, CapturedMessage{From: from, To: to, Data: data})
	s.mu.Unlock()
}

// Drain appends the captured messages to dst and clears the sink, under
// one lock: a clone that is fed many deliveries hands each one's emissions
// on without ever copying what it sent before, into a buffer the caller
// reuses. The sink keeps its own buffer too.
func (s *CaptureSink) Drain(dst []CapturedMessage) []CapturedMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst = append(dst, s.msgs...)
	clear(s.msgs)
	s.msgs = s.msgs[:0]
	return dst
}

// Count returns the number of captured messages.
func (s *CaptureSink) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

// Package netsim is an in-memory virtual network: named nodes joined by
// duplex links with configurable latency, a virtual clock, and a
// deterministic event queue. It replaces the Linux virtual interfaces of
// the paper's testbed (Figure 2).
//
// Isolation for DiCE (§2.3: "DiCE intercepts the messages generated
// during exploration") is structural: exploration clones are never
// attached to the network — their transport is a CaptureSink, so whatever
// they send is recorded for the oracles and goes nowhere else.
package netsim

import (
	"fmt"
	"sync"
	"time"
)

// Transport lets a protocol stack send bytes toward a named peer. Both
// the Network (live) and CaptureSink (exploration) implement it. Send
// copies data before it returns: a sender may hand the same bytes to
// several peers, or reuse them, without affecting what was sent.
type Transport interface {
	Send(from, to string, data []byte)
}

// Receiver is implemented by node protocol stacks.
type Receiver interface {
	// Deliver hands the node bytes that arrived from a peer at virtual
	// time now. The receiver treats them as read-only and copies what it
	// keeps past the call.
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

// Queue is a binary min-heap of Event values ordered by (At, Seq). Seq is
// unique per scheduler, so the order is total and the delivery sequence
// does not depend on how the heap is laid out. Events are stored by value:
// a push allocates nothing beyond amortized growth of the slice.
type Queue []Event

func (q Queue) less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].Seq < q[j].Seq
}

// Push adds e and sifts it up to its place.
func (q *Queue) Push(e Event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// Pop removes and returns the earliest event. The queue must not be
// empty.
func (q *Queue) Pop() Event {
	h := *q
	last := len(h) - 1
	e := h[0]
	h[0] = h[last]
	h[last] = Event{} // the vacated slot must not keep the payload alive
	h = h[:last]
	for i := 0; ; {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	*q = h
	return e
}

// LinkStats counts traffic over one direction of a link.
type LinkStats struct {
	Messages uint64
	Bytes    uint64
}

type linkKey struct{ a, b string }

type link struct {
	latency time.Duration
	stats   [2]LinkStats // by sender: [0] the endpoint key puts first, [1] the other
}

// from returns the counters for traffic sent by node from over l, which
// is keyed k.
func (l *link) from(k linkKey, from string) *LinkStats {
	if from == k.a {
		return &l.stats[0]
	}
	return &l.stats[1]
}

// Network is the virtual network. Safe for concurrent Send; Run/Step must
// be called from one goroutine. Virtual time runs from the epoch New was
// given; queued events carry it as an offset from there.
type Network struct {
	mu    sync.Mutex
	nodes map[string]Receiver
	links map[linkKey]*link
	queue Queue
	seq   uint64
	epoch time.Time
	now   time.Duration // since epoch
}

// New creates an empty network with the virtual clock at start.
func New(start time.Time) *Network {
	return &Network{
		nodes: make(map[string]Receiver),
		links: make(map[linkKey]*link),
		epoch: start,
	}
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

func key(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Connect creates a duplex link between two existing nodes.
func (n *Network) Connect(a, b string, latency time.Duration) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[a]; !ok {
		return fmt.Errorf("netsim: unknown node %q", a)
	}
	if _, ok := n.nodes[b]; !ok {
		return fmt.Errorf("netsim: unknown node %q", b)
	}
	k := key(a, b)
	if _, dup := n.links[k]; dup {
		return fmt.Errorf("netsim: duplicate link %s-%s", a, b)
	}
	n.links[k] = &link{latency: latency}
	return nil
}

// Stats returns the traffic counters for the a→b direction.
func (n *Network) Stats(from, to string) LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := key(from, to)
	l, ok := n.links[k]
	if !ok {
		return LinkStats{}
	}
	return *l.from(k, from)
}

// Send implements Transport: it enqueues a delivery across the link.
// Sends over missing links are dropped (like an unplugged cable), keeping
// exploration safe.
func (n *Network) Send(from, to string, data []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := key(from, to)
	l, ok := n.links[k]
	if !ok {
		return
	}
	st := l.from(k, from)
	st.Messages++
	st.Bytes += uint64(len(data))
	cp := make([]byte, len(data))
	copy(cp, data)
	n.seq++
	n.queue.Push(Event{At: n.now + l.latency, Seq: n.seq, From: from, To: to, Data: cp})
}

// Step delivers the next queued event, advancing the virtual clock.
// It returns false when the queue is empty.
func (n *Network) Step() bool {
	n.mu.Lock()
	if len(n.queue) == 0 {
		n.mu.Unlock()
		return false
	}
	e := n.queue.Pop()
	n.now = max(n.now, e.At)
	r, ok := n.nodes[e.To]
	now := n.epoch.Add(n.now)
	n.mu.Unlock()

	if ok {
		r.Deliver(now, e.From, e.Data)
	}
	return true
}

// Next reports the delivery the next Step makes, without making it. ok is
// false when the queue is empty.
func (n *Network) Next() (e Event, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.queue) == 0 {
		return Event{}, false
	}
	return n.queue[0], true
}

// Run processes events until the queue drains or limit deliveries occur
// (limit <= 0 means no limit). It returns the number of deliveries.
func (n *Network) Run(limit int) int {
	count := 0
	for limit <= 0 || count < limit {
		if !n.Step() {
			break
		}
		count++
	}
	return count
}

// RunUntil processes events with timestamps <= deadline, then advances the
// clock to the deadline.
func (n *Network) RunUntil(deadline time.Time) int {
	count := 0
	for {
		n.mu.Lock()
		if until := deadline.Sub(n.epoch); len(n.queue) == 0 || n.queue[0].At > until {
			n.now = max(n.now, until)
			n.mu.Unlock()
			return count
		}
		n.mu.Unlock()
		if !n.Step() {
			return count
		}
		count++
	}
}

// Pending returns the number of queued deliveries.
func (n *Network) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
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

// Send implements Transport by capturing.
func (s *CaptureSink) Send(from, to string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.msgs = append(s.msgs, CapturedMessage{From: from, To: to, Data: cp})
	s.mu.Unlock()
}

// Messages returns a snapshot of captured messages.
func (s *CaptureSink) Messages() []CapturedMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]CapturedMessage(nil), s.msgs...)
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

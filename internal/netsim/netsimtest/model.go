// Package netsimtest is the reference model netsim's event loop is tested
// against: one delivery at a time, the earliest (time, send order) event
// found by a linear scan. It shares no code with netsim's heap or step
// taker, so a bug there cannot hide in both.
package netsimtest

import (
	"slices"
	"time"

	"dice/internal/netsim"
)

// Model is a virtual network that delivers one event per Step: the
// Network's methods but Stats, plus Next and Step. It is not safe for
// concurrent use.
type Model struct {
	nodes map[string]netsim.Receiver
	links map[[2]string]time.Duration
	queue []netsim.Event
	seq   uint64
	epoch time.Time
	now   time.Duration
}

// New returns an empty model with the clock at start.
func New(start time.Time) *Model {
	return &Model{nodes: map[string]netsim.Receiver{}, links: map[[2]string]time.Duration{}, epoch: start}
}

// AddNode attaches r as name.
func (m *Model) AddNode(name string, r netsim.Receiver) error { m.nodes[name] = r; return nil }

// Connect links a and b both ways.
func (m *Model) Connect(a, b string, latency time.Duration) error {
	m.links[[2]string{a, b}], m.links[[2]string{b, a}] = latency, latency
	return nil
}

// Send queues a copy of data from→to at now plus the link's latency; with
// no link it is dropped.
func (m *Model) Send(from, to string, data []byte) {
	if lat, ok := m.links[[2]string{from, to}]; ok {
		m.seq++
		m.queue = append(m.queue, netsim.Event{At: m.now + lat, Seq: m.seq, From: from, To: to, Data: slices.Clone(data)})
	}
}

// Next reports the event the next Step delivers, without delivering it.
func (m *Model) Next() (netsim.Event, bool) {
	if len(m.queue) == 0 {
		return netsim.Event{}, false
	}
	best := 0
	for i, e := range m.queue {
		if e.At < m.queue[best].At || e.At == m.queue[best].At && e.Seq < m.queue[best].Seq {
			best = i
		}
	}
	return m.queue[best], true
}

// Step delivers the next event at its time and reports whether there was
// one.
func (m *Model) Step() bool {
	e, ok := m.Next()
	if !ok {
		return false
	}
	m.queue = slices.DeleteFunc(m.queue, func(q netsim.Event) bool { return q.Seq == e.Seq })
	m.now = max(m.now, e.At)
	if r, ok := m.nodes[e.To]; ok {
		r.Deliver(m.epoch.Add(m.now), e.From, e.Data)
	}
	return true
}

// Run steps until the queue is empty or limit events were delivered
// (limit <= 0: no limit), and returns how many were.
func (m *Model) Run(limit int) int {
	n := 0
	for (limit <= 0 || n < limit) && m.Step() {
		n++
	}
	return n
}

// RunUntil steps while the next event is due by deadline, then moves the
// clock to the deadline.
func (m *Model) RunUntil(deadline time.Time) int {
	n, until := 0, deadline.Sub(m.epoch)
	for e, ok := m.Next(); ok && e.At <= until; e, ok = m.Next() {
		m.Step()
		n++
	}
	m.now = max(m.now, until)
	return n
}

// Now returns the virtual time.
func (m *Model) Now() time.Time { return m.epoch.Add(m.now) }

// Pending returns the number of queued events.
func (m *Model) Pending() int { return len(m.queue) }

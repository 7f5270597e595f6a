package core

import (
	"fmt"
	"time"

	"dice/internal/bgp"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/prop"
)

// This file is the wave scheduler, written once. Both backends'
// Shadows.Propagate hand a witness group to a Relay, and a backend
// supplies only how one relay step is executed: direct router deliveries
// in process (ShadowFabric.Deliver), one pipelined inject_witness per
// agent over RPC. Either way the waves run in the same (virtual time,
// FIFO) order netsim would deliver them in, with the same telemetry.

// Delivery is one message of a relay step as the backend executes it: the
// event (Data from From arrives at To, At after the group's injection, in
// the wave Tag indexes), the prefix its wave is about, and what the
// backend reports back.
type Delivery struct {
	netsim.Event
	Watch netaddr.Prefix
	// First marks the wave's first delivery to To: the backend sets Before
	// to the watched prefix's best-route token just before it (nil for
	// none). Other deliveries need no Before.
	First  bool
	Before any
	// After is To's view of the watched prefix just after the delivery,
	// for a backend that reads one per delivery (the agents answer one
	// anyway); the relay keeps each node's last. The in-process backend
	// leaves it nil and reads a view per touched node after the waves.
	After *RouteView
}

// StepFunc executes one relay step on a backend's shadows: every delivery
// of step, in order, each reporting what it made its node send through
// emit, in send order. depth is the relay queue's length when the step
// was taken off it. An error abandons the waves.
type StepFunc func(step []Delivery, depth int, emit func(d *Delivery, to string, msg []byte)) error

// NoPeerError is how a delivery from a sender that is not one of the
// node's peers fails, on either backend.
func NoPeerError(node, from string) error {
	return fmt.Errorf("%s has no peer %q", node, from)
}

// Relay runs a witness group's waves for one shadow set. Its queue and
// step buffer are reused across the set's Propagate calls.
type Relay struct {
	d     *Driver // the topology's link latencies
	queue netsim.Queue
	step  []Delivery
	last  []time.Duration // each wave's current timestamp
}

// NewRelay returns a relay over the driver's topology links.
func (d *Driver) NewRelay() *Relay { return &Relay{d: d} }

// Run injects every member of the group at To as if From had sent it and
// relays the resulting waves to quiescence, together, one step at a time
// through exec. A step is every queued delivery within the lookahead of
// the earliest: an emission lands at its cause's time plus a link latency
// that is never less than the lookahead, with a later sequence number
// than anything already queued, so nothing a step causes can sort inside
// it, and no node hears from another within one step. The step's
// emissions are queued in delivery order, so sequence numbers come out as
// if the deliveries had run one at a time: netsim's delivery order. A send
// over a missing link is dropped, like netsim's unplugged cable.
//
// Steps, per-timestamp wave counts, the maxSteps budget and the pending
// count are kept per wave: a wave that has spent its budget stops being
// delivered, what is queued for it stays counted as pending, and the
// waves beside it run on. Touched keeps, per wave and node, the first
// delivery's Before and the last one's After.
func (r *Relay) Run(group []Injection, maxSteps int, exec StepFunc) ([]Wave, error) {
	clear(r.queue) // what a wave that hit its budget left queued
	r.queue, r.last = r.queue[:0], r.last[:0]
	waves := make([]Wave, len(group))
	for i, in := range group {
		lat, linked := r.d.latency[[2]string{in.From, in.To}]
		if !linked {
			return nil, fmt.Errorf("federated: no %s→%s link for witness injection", in.From, in.To)
		}
		wire, err := bgp.Encode(in.Update)
		if err != nil {
			return nil, err
		}
		r.queue.Push(netsim.Event{At: lat, Seq: uint64(i + 1), Tag: i, From: in.From, To: in.To, Data: wire})
		waves[i] = Wave{Phase: prop.Phase{Pending: 1}, Touched: make(map[string]RouteChange)}
		r.last = append(r.last, 0)
	}
	// Injections carry sequence numbers 1..len(group); emissions continue
	// from there.
	seq := uint64(len(group))
	emit := func(d *Delivery, to string, msg []byte) {
		lat, linked := r.d.latency[[2]string{d.To, to}]
		if !linked {
			return
		}
		seq++
		waves[d.Tag].Pending++
		r.queue.Push(netsim.Event{At: d.At + lat, Seq: seq, Tag: d.Tag, From: d.To, To: to, Data: msg})
	}
	for len(r.queue) > 0 {
		depth := len(r.queue)
		r.step = r.step[:0]
		for horizon := r.queue[0].At + r.d.lookahead; len(r.queue) > 0 && r.queue[0].At <= horizon; {
			e := r.queue.Pop()
			w := &waves[e.Tag]
			if w.Steps == maxSteps {
				continue // budget spent: stays pending, like a solo run's backlog
			}
			w.Steps++
			w.Pending--
			if len(w.Waves) == 0 || e.At != r.last[e.Tag] {
				w.Waves = append(w.Waves, 0)
				r.last[e.Tag] = e.At
			}
			w.Waves[len(w.Waves)-1]++
			_, seen := w.Touched[e.To]
			if !seen {
				w.Touched[e.To] = RouteChange{}
			}
			r.step = append(r.step, Delivery{Event: e, Watch: group[e.Tag].Watch, First: !seen})
		}
		if len(r.step) == 0 {
			continue
		}
		if err := exec(r.step, depth, emit); err != nil {
			return nil, err
		}
		for i := range r.step {
			d := &r.step[i]
			if !d.First && d.After == nil {
				continue
			}
			touched := waves[d.Tag].Touched
			ch := touched[d.To]
			if d.First {
				ch.Before = d.Before
			}
			if d.After != nil {
				ch.After = *d.After
			}
			touched[d.To] = ch
		}
	}
	return waves, nil
}

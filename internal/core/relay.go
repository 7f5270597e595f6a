package core

import (
	"fmt"
	"math"
	"time"

	"dice/internal/bgp"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/prop"
)

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

// Relay is the wave scheduler, written once: both backends'
// Shadows.Propagate hand it a witness group and supply only how a step is
// executed — direct router deliveries in process (ShadowFabric.Deliver),
// one pipelined inject_witness per agent over RPC. It keeps the per-wave
// books on a netsim.Loop over the topology's links, reused across calls.
type Relay struct {
	loop   *netsim.Loop
	events []netsim.Event
	step   []Delivery
}

// NewRelay returns a relay over the driver's topology links.
func (d *Driver) NewRelay() *Relay { return &Relay{loop: netsim.NewLoop(d.links)} }

// Run injects every member of the group at To as if From had sent it and
// relays the resulting waves to quiescence, together, one loop step at a
// time through exec, emissions queued in delivery order: the Network's
// order, as netsim's package doc argues. A send over no link is dropped.
//
// Steps, per-timestamp wave counts, the maxSteps budget and the pending
// count are kept per wave: a wave that has spent its budget stops being
// delivered, what is queued for it stays counted as pending, and the
// waves beside it run on. Touched keeps, per wave and node, the first
// delivery's Before and the last one's After.
func (r *Relay) Run(group []Injection, maxSteps int, exec StepFunc) ([]Wave, error) {
	r.loop.Reset() // what a wave that hit its budget left queued
	waves := make([]Wave, len(group))
	last := make([]time.Duration, len(group)) // each wave's current timestamp
	for i, in := range group {
		wire, err := bgp.Encode(in.Update)
		if err != nil {
			return nil, err
		}
		if !r.loop.Send(0, i, in.From, in.To, wire) {
			return nil, fmt.Errorf("federated: no %s→%s link for witness injection", in.From, in.To)
		}
		waves[i] = Wave{Phase: prop.Phase{Pending: 1}, Touched: make(map[string]RouteChange)}
	}
	emit := func(d *Delivery, to string, msg []byte) {
		if r.loop.Send(d.At, d.Tag, d.To, to, msg) {
			waves[d.Tag].Pending++
		}
	}
	for r.loop.Len() > 0 {
		depth := r.loop.Len()
		r.events = r.loop.Step(r.events[:0], math.MaxInt64)
		r.step = r.step[:0]
		for _, e := range r.events {
			w := &waves[e.Tag]
			if w.Steps == maxSteps {
				continue // budget spent: stays pending, like a solo run's backlog
			}
			w.Steps++
			w.Pending--
			if len(w.Waves) == 0 || e.At != last[e.Tag] {
				w.Waves = append(w.Waves, 0)
				last[e.Tag] = e.At
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

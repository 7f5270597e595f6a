package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"dice/internal/bgp"
	"dice/internal/netaddr"
	"dice/internal/netsim"
	"dice/internal/prop"
)

// Delivery is one message of a relay step as the backend executes it: the
// event (Data from From arrives at To, At after the group's injection, in
// the wave Tag indexes), the prefix its wave is about, and what To's
// NodeShadow.Deliver reported: the watched prefix's best-route token
// before and To's view of it after. Per wave and node, the relay keeps
// the first delivery's Before and the last one's After.
type Delivery struct {
	netsim.Event
	Watch  netaddr.Prefix
	Before uint64
	After  RouteView
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
// Shadows.Propagate hand it a witness group and supply only how a step
// reaches the node shadows — a direct call in process
// (FabricShadows.Step), one pipelined inject_witness per agent over RPC.
// Its books — a netsim.Loop over the topology's links, the step buffers
// and every wave's Touched — are reused across its Runs, and across the
// shadow sets of a round: a set takes a relay from its Driver when it
// opens (AcquireRelay) and hands it back when it closes (ReleaseRelay),
// so a round's groups regrow none of them. The driver lets go of them
// when the round ends, so nothing is kept between rounds.
type Relay struct {
	loop    *netsim.Loop
	index   map[string]int // node name → index into the fleet's Nodes()
	events  []netsim.Event
	step    []Delivery
	touched []RouteChange // the waves' Touched, back to back
}

// AcquireRelay returns a relay over the driver's topology links, one a
// closed shadow set released when there is one. Safe for concurrent use.
func (d *Driver) AcquireRelay() *Relay {
	d.relayMu.Lock()
	defer d.relayMu.Unlock()
	if n := len(d.relays); n > 0 {
		r := d.relays[n-1]
		d.relays = d.relays[:n-1]
		return r
	}
	return &Relay{loop: netsim.NewLoop(d.links), index: d.index}
}

// ReleaseRelay hands r back for a later set of the round. Nothing of it
// may be used after, the Touched of the waves it ran included.
func (d *Driver) ReleaseRelay(r *Relay) {
	d.relayMu.Lock()
	d.relays = append(d.relays, r)
	d.relayMu.Unlock()
}

// dropRelays lets go of the released relays.
func (d *Driver) dropRelays() {
	d.relayMu.Lock()
	d.relays = nil
	d.relayMu.Unlock()
}

// Run injects every member of the group at To as if From had sent it and
// relays the resulting waves to quiescence, together, one loop step at a
// time through exec, emissions queued in delivery order: the Network's
// order, as netsim's package doc argues. A send over no link is dropped.
//
// Steps, per-timestamp wave counts, the maxSteps budget and the pending
// count are kept per wave: a wave that has spent its budget stops being
// delivered, what is queued for it stays counted as pending, and the
// waves beside it run on. Touched keeps, per wave and node, the first
// delivery's Before and the last one's After; it is the relay's, valid
// until its next Run.
func (r *Relay) Run(group []Injection, maxSteps int, exec StepFunc) ([]Wave, error) {
	r.loop.Reset() // what a wave that hit its budget left queued
	n := len(r.index)
	r.touched = slices.Grow(r.touched[:0], len(group)*n)[:len(group)*n]
	clear(r.touched)
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
		waves[i] = Wave{Phase: prop.Phase{Pending: 1}, Touched: r.touched[i*n : (i+1)*n : (i+1)*n]}
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
			r.step = append(r.step, Delivery{Event: e, Watch: group[e.Tag].Watch})
		}
		if len(r.step) == 0 {
			continue
		}
		if err := exec(r.step, depth, emit); err != nil {
			return nil, err
		}
		for i := range r.step {
			d := &r.step[i]
			ch := &waves[d.Tag].Touched[r.index[d.To]] // links join only the topology's nodes
			if !ch.Seen {                              // the wave's first delivery to d.To
				ch.Seen, ch.Before = true, d.Before
			}
			ch.After = d.After
		}
	}
	return waves, nil
}

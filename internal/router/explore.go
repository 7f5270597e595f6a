package router

import (
	"fmt"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/filter"
	"dice/internal/netaddr"
	"dice/internal/rib"
	"dice/internal/sym"
)

// DiCE's instrumentation hooks. A scenario is three small things around
// the one pipeline (Router.process): an InputModel declaring which fields
// of a seed message are symbolic (§3.2: selectively chosen small fields,
// so every generated message stays syntactically valid), an entry point
// that materializes the run's message, states the model's well-formedness
// assumptions and hands the pipeline a lift, and the Outcome the pipeline
// fills in. This file holds the shared parts and the "update" scenario.

// Input is one field of a seed message DiCE marks symbolic.
type Input[S any] struct {
	Name  string
	Width int
	Seed  func(S) uint64 // the field's value in an observed message
}

// InputModel is a scenario's symbolic input, stated once: the order of
// Inputs is the order of the engine's variable IDs, and every table that
// relates names, IDs and message fields derives from it.
type InputModel[S any] struct {
	Inputs []Input[S]
	// Usable, when set, explains why a message cannot seed the model.
	Usable func(seed S) error
	// Materialize writes a run's input values over the seed message: the
	// concrete message the run processes, as presented by a peer in peerAS.
	// The OPEN model has none: its checks read the inputs themselves.
	Materialize func(seed S, peerAS uint16, in map[string]uint64) S
}

// Declare registers the model on an engine, each input seeded from the
// observed message.
func (m *InputModel[S]) Declare(eng *concolic.Engine, seed S) error {
	if m.Usable != nil {
		if err := m.Usable(seed); err != nil {
			return err
		}
	}
	for _, in := range m.Inputs {
		eng.Var(in.Name, in.Width, in.Seed(seed))
	}
	return nil
}

// ID returns the engine variable ID of the named input. It panics on an
// unknown name: that is a bug in the caller, not an input error.
func (m *InputModel[S]) ID(name string) int {
	for id, in := range m.Inputs {
		if in.Name == name {
			return id
		}
	}
	panic(fmt.Sprintf("router: input model has no %q", name))
}

// Var returns the named input as a solver variable, for oracle queries
// over a path condition.
func (m *InputModel[S]) Var(name string) *sym.Var {
	id := m.ID(name)
	return sym.NewVar(id, name, m.Inputs[id].Width)
}

// Named renders an engine assignment by input name.
func (m *InputModel[S]) Named(env sym.Env) map[string]uint64 {
	out := make(map[string]uint64, len(env))
	for id, v := range env {
		out[m.Inputs[id].Name] = v
	}
	return out
}

// Env is Named's inverse: the engine assignment for a named input (a
// finding's witness, say). Names the model does not declare are ignored.
func (m *InputModel[S]) Env(named map[string]uint64) sym.Env {
	env := make(sym.Env, len(named))
	for id, in := range m.Inputs {
		if v, ok := named[in.Name]; ok {
			env[id] = v
		}
	}
	return env
}

// Outcome is what the pipeline observed while processing one explored
// message — the scenarios' oracles read their verdicts off it.
type Outcome struct {
	Peer   string
	Prefix netaddr.Prefix // the announced or withdrawn prefix
	// OriginAS is the origin AS the announcement presented (0 for a
	// withdrawal).
	OriginAS uint16
	// Community is the community word the routeleak model attached this
	// run (0 = none; by the SymCommunity convention a zero slot is absent).
	Community uint32
	// Accepted reports that the message took effect on the peer's own
	// route: an announcement passed import policy and was installed as the
	// peer's candidate; a withdrawal removed a route the peer had
	// contributed.
	Accepted bool
	// Change is the best-path change the message caused for Prefix.
	Change rib.Change
	// SpreadTo lists the peers the new best route (Change.New) was
	// announced to — the condition under which a local misconfiguration
	// becomes an Internet-wide incident (the PCCW side of the YouTube
	// hijack). Export filters run under the recording context, so their
	// branches join the explored path condition. Notified lists every peer
	// sent an UPDATE in consequence, announcement or withdrawal. Both are
	// captured, never sent (isolation invariant), and sorted.
	SpreadTo, Notified []string
}

// BestChanged reports that the message changed the best path for Prefix
// (it would steer or stop traffic).
func (o *Outcome) BestChanged() bool { return o.Change.Changed() }

// Blackholed reports that no route to Prefix remained: it lost
// reachability entirely (vs. falling back to another path).
func (o *Outcome) Blackholed() bool { return o.Change.Changed() && o.Change.New == nil }

// explore runs one single-prefix message from the named peer through the
// pipeline against this (cloned) router's state and reports what it
// observed. Constraints flow through br; outbound messages flow to the
// clone's capture transport.
func (r *Router) explore(peerName string, u *bgp.Update, lf lift, br filter.Brancher) Outcome {
	out := Outcome{Peer: peerName}
	if len(u.NLRI) > 0 {
		out.Prefix, out.OriginAS = u.NLRI[0], u.Attrs.ASPath.OriginAS()
	} else {
		out.Prefix = u.Withdrawn[0]
	}
	r.process(r.peer(peerName), u, lf, br, &out)
	return out
}

// HandleUpdateConcrete processes the first NLRI of an UPDATE against this
// (cloned) router with no symbolic instrumentation and reports the
// outcome. Used by the raw-bytes-marking ablation, where generated
// messages are decoded from mutated wire bytes and only the surviving
// valid ones reach policy code.
func (r *Router) HandleUpdateConcrete(peerName string, u *bgp.Update) Outcome {
	if r.peer(peerName) == nil || len(u.NLRI) == 0 {
		return Outcome{Peer: peerName}
	}
	if len(u.NLRI) > 1 || len(u.Withdrawn) > 0 {
		u = &bgp.Update{Attrs: u.Attrs, NLRI: u.NLRI[:1]}
	}
	return r.explore(peerName, u, nil, filter.ConcreteBrancher{})
}

// symbolicPrefix reads a model's (address, length) input pair. Mask
// lengths above 32 cannot be encoded, so that is an assumption, not an
// explorable branch; the NLRI encoding canonicalizes host bits, modelled
// by masking with this run's concrete length.
func symbolicPrefix(rc *concolic.RunContext, addr, length string) (netV, lenV concolic.Value) {
	lenV = rc.Input(length)
	rc.Assume(concolic.Le(lenV, concolic.Concrete(32, 8)))
	mask := concolic.Concrete(uint64(uint32(netaddr.Mask(int(lenV.C)))), 32)
	return concolic.And(rc.Input(addr), mask), lenV
}

// inputPrefix is the concrete prefix symbolicPrefix's pair names.
func inputPrefix(in map[string]uint64, addr, length string) netaddr.Prefix {
	bits := int(uint8(in[length]))
	return netaddr.PrefixFrom(netaddr.Addr(uint32(in[addr]))&netaddr.Mask(bits), bits)
}

// requireNLRI is the announcement models' Usable.
func requireNLRI(seed *bgp.Update) error {
	if len(seed.NLRI) == 0 {
		return fmt.Errorf("router: seed update has no NLRI")
	}
	return nil
}

// The "update" scenario's inputs: the NLRI and the small attribute fields
// of an observed announcement.
const (
	UpdateAddr      = "nlri.addr"
	UpdateLen       = "nlri.len"
	UpdateOrigin    = "attr.origin"
	UpdateMED       = "attr.med"
	UpdateLocalPref = "attr.local_pref"
)

// UpdateInputs is the paper's input model for a seed UPDATE.
var UpdateInputs = InputModel[*bgp.Update]{
	Inputs: []Input[*bgp.Update]{
		{UpdateAddr, 32, func(u *bgp.Update) uint64 { return uint64(uint32(u.NLRI[0].Addr())) }},
		{UpdateLen, 8, func(u *bgp.Update) uint64 { return uint64(u.NLRI[0].Bits()) }},
		{UpdateOrigin, 8, func(u *bgp.Update) uint64 { return uint64(u.Attrs.Origin) }},
		{UpdateMED, 32, func(u *bgp.Update) uint64 { return filter.SubjectFromRoute(u.NLRI[0], &u.Attrs).MED.C }},
		{UpdateLocalPref, 32, func(u *bgp.Update) uint64 { return filter.SubjectFromRoute(u.NLRI[0], &u.Attrs).LocalPref.C }},
	},
	Usable: requireNLRI,
	Materialize: func(seed *bgp.Update, _ uint16, in map[string]uint64) *bgp.Update {
		attrs := seed.Attrs.Clone()
		attrs.Origin = uint8(in[UpdateOrigin])
		attrs.HasMED, attrs.MED = true, uint32(in[UpdateMED])
		attrs.HasLocalPref, attrs.LocalPref = true, uint32(in[UpdateLocalPref])
		return &bgp.Update{Attrs: attrs, NLRI: []netaddr.Prefix{inputPrefix(in, UpdateAddr, UpdateLen)}}
	},
}

// ExploreUpdate processes one exploratory announcement built from the
// seed with the symbolic fields replaced by engine-chosen values.
func (r *Router) ExploreUpdate(rc *concolic.RunContext, peerName string, seed *bgp.Update) Outcome {
	ps := r.peer(peerName)
	if ps == nil {
		return Outcome{Peer: peerName}
	}
	netV, lenV := symbolicPrefix(rc, UpdateAddr, UpdateLen)
	originV, medV, lpV := rc.Input(UpdateOrigin), rc.Input(UpdateMED), rc.Input(UpdateLocalPref)
	rc.Assume(concolic.Le(originV, concolic.Concrete(bgp.OriginIncomplete, 8))) // the only ORIGIN codes
	u := UpdateInputs.Materialize(seed, ps.peer.AS, UpdateInputs.Named(rc.Env()))
	return r.explore(peerName, u, func(subj *filter.Subject, _ *bgp.Attrs, export bool) {
		subj.NetAddr, subj.NetLen = netV, lenV
		if !export {
			// Past the import policy, which may rewrite them, the attribute
			// fields are concrete.
			subj.Origin, subj.MED, subj.LocalPref = originV, medV, lpV
		}
	}, rc)
}

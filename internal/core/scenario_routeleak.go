package core

import (
	"fmt"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/netaddr"
	"dice/internal/router"
	"dice/internal/solver"
	"dice/internal/sym"
)

// routeleakScenario explores the policy edge an announcement crosses when
// a peer sends it: the symbolic input is the (prefix, AS-path origin,
// community) triple. Its local oracle asks, for every accepted path that
// the export policy would re-announce, whether the path condition admits
// the announcement carrying the RFC 1997 NO_EXPORT community — i.e.
// whether a route the peer explicitly scoped to this AS would still
// escape the policy boundary. The federated layer then confirms findings
// cross-node by propagating the concrete witness over a shadow topology.
type routeleakScenario struct{}

func init() { RegisterScenario(routeleakScenario{}) }

// Variable IDs follow DeclareLeakInputs declaration order.
const (
	leakAddrVarID = 0
	leakLenVarID  = 1
	leakOrigVarID = 2
	leakCommVarID = 3
)

func (routeleakScenario) Name() string { return ScenarioRouteLeak }

func (routeleakScenario) Description() string {
	return "no-export boundary exploration: symbolic (prefix, AS-path origin, community) with a route-leak oracle"
}

func (routeleakScenario) Seed(live *router.Router, peer string) (any, error) {
	// The most recent announcement, not the most recent message: a
	// replayed history ending in a withdraw must still leave a usable
	// announcement template.
	seed := live.LastAnnounced(peer)
	if seed == nil {
		return nil, fmt.Errorf("dice: no observed UPDATE from peer %q to explore from", peer)
	}
	return seed, nil
}

func (routeleakScenario) Declare(eng *concolic.Engine, seed any) error {
	return router.DeclareLeakInputs(eng, seed.(*bgp.Update))
}

func (routeleakScenario) Execute(rc *concolic.RunContext, clone *router.Router, peer string, seed any) any {
	return clone.HandleLeakConcolic(rc, peer, seed.(*bgp.Update))
}

// Judge is the route-leak oracle for one path: does this
// accepting-and-exporting path admit the announcement carrying the
// boundary community? If the export policy honored the community the
// path condition forbids it and the query is Unsat.
func (routeleakScenario) Judge(round *Round, p *concolic.PathResult) any {
	out, ok := p.Output.(router.LeakOutcome)
	if !ok || !out.Accepted || len(out.SpreadTo) == 0 {
		return nil
	}
	commVar := sym.NewVar(leakCommVarID, router.StandardLeakVars.Community, 32)
	cs := p.Constraints()
	query := append(cs, sym.NewCmp(sym.OpEq, commVar, sym.NewConst(uint64(round.Boundary), 32)))
	env, sat := solver.New(solver.Options{Hint: p.Env}).Solve(query)
	if sat != solver.Sat {
		return nil
	}

	// Witness validation by re-execution: the solver's assignment must
	// concretely reproduce accept + boundary community + spread on a
	// fresh clone.
	pr := round.Engine.RunOnce(env)
	vout, ok := pr.Output.(router.LeakOutcome)
	if !ok || !vout.Accepted || vout.Community != round.Boundary || len(vout.SpreadTo) == 0 {
		return &verdict{rejected: 1}
	}

	region := RangeDesc{AddrHi: netaddr.Addr(0xffffffff), LenHi: 32}
	if info, feasible := solver.Analyze(cs); feasible {
		region = regionFrom(info) // leak var IDs 0/1 match the shared helper
	}
	return &verdict{findings: []Finding{{
		Kind:      "route-leak",
		Peer:      out.Peer,
		Prefix:    vout.Prefix,
		LeakRange: region,
		OriginAS:  vout.OriginAS,
		Seq:       p.Seq,
		Input:     leakNamedInput(pr.Env),
		Validated: true,
		SpreadTo:  vout.SpreadTo,
	}}}
}

// Analyze keeps the first finding per (prefix, origin, spread) in
// discovery order.
func (routeleakScenario) Analyze(_ *Round, res *Result) {
	seen := map[string]bool{}
	for pi := range res.Report.Paths {
		v := verdictOf(&res.Report.Paths[pi])
		if v == nil {
			continue
		}
		res.WitnessesRejected += v.rejected
		for _, f := range v.findings {
			key := fmt.Sprintf("%s|%d|%v", f.Prefix, f.OriginAS, f.SpreadTo)
			if !seen[key] {
				seen[key] = true
				res.Findings = append(res.Findings, f)
			}
		}
	}
}

// WitnessUpdate materializes the concrete announcement behind a finding:
// the witness prefix, presented over the peer's AS with the witness
// origin, carrying the witness community. The federated layer injects it
// into a shadow topology for cross-node confirmation.
func (routeleakScenario) WitnessUpdate(seed any, f Finding) *bgp.Update {
	su := seed.(*bgp.Update)
	peerAS := su.Attrs.ASPath.FirstAS()
	origin := f.OriginAS
	attrs := su.Attrs.Clone()
	path := bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{peerAS}}}
	if origin != 0 && origin != peerAS {
		path[0].ASNs = append(path[0].ASNs, origin)
	}
	attrs.ASPath = path
	// Keep the seed's concrete communities — the validated acceptance may
	// have depended on them (concrete membership hits record no
	// constraint) — and add the witness community the way
	// HandleLeakConcolic materialized it.
	attrs.Communities = append([]uint32(nil), su.Attrs.Communities...)
	if c := uint32(f.Input[router.StandardLeakVars.Community]); c != 0 && !attrs.HasCommunity(c) {
		attrs.Communities = append(attrs.Communities, c)
	}
	return &bgp.Update{Attrs: attrs, NLRI: []netaddr.Prefix{f.Prefix}}
}

// leakNamedInput renders a leak-scenario assignment with the standard
// variable names (IDs follow DeclareLeakInputs declaration order).
func leakNamedInput(env sym.Env) map[string]uint64 {
	names := []string{
		router.StandardLeakVars.Addr,
		router.StandardLeakVars.Len,
		router.StandardLeakVars.OriginAS,
		router.StandardLeakVars.Community,
	}
	out := make(map[string]uint64, len(env))
	for id, v := range env {
		if id < len(names) {
			out[names[id]] = v
		} else {
			out[fmt.Sprintf("var%d", id)] = v
		}
	}
	return out
}

package core

import (
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

func (routeleakScenario) Name() string { return ScenarioRouteLeak }

func (routeleakScenario) Description() string {
	return "no-export boundary exploration: symbolic (prefix, AS-path origin, community) with a route-leak oracle"
}

func (routeleakScenario) Seed(live *router.Router, peer string) (any, error) {
	return announcementSeed(live, peer)
}

func (routeleakScenario) Declare(eng *concolic.Engine, seed any) error {
	return router.LeakInputs.Declare(eng, seed.(*bgp.Update))
}

func (routeleakScenario) Execute(rc *concolic.RunContext, clone *router.Router, peer string, seed any) any {
	return clone.ExploreLeak(rc, peer, seed.(*bgp.Update))
}

// Judge is the route-leak oracle for one path: does this
// accepting-and-exporting path admit the announcement carrying the
// boundary community? If the export policy honored the community the
// path condition forbids it and the query is Unsat. Both the query and
// the leakable region start from the path condition's snapshot on the
// worker's solver; the boundary conjunct is never cached.
func (routeleakScenario) Judge(round *Round, p *concolic.PathResult, sv *solver.Solver) any {
	out, ok := p.Output.(router.Outcome)
	if !ok || !out.Accepted || len(out.SpreadTo) == 0 {
		return nil
	}
	cs := p.Constraints()
	boundary := sym.NewCmp(sym.OpEq, router.LeakInputs.Var(router.LeakCommunity), sym.NewConst(uint64(round.Boundary), 32))
	env, sat := sv.SolveExtended(cs, []sym.Expr{boundary}, p.Env)
	if sat != solver.Sat {
		return nil
	}

	// Witness validation by re-execution: the solver's assignment must
	// concretely reproduce accept + boundary community + spread on a
	// fresh clone.
	pr := round.Engine.RunOnce(env)
	vout, ok := pr.Output.(router.Outcome)
	if !ok || !vout.Accepted || vout.Community != round.Boundary || len(vout.SpreadTo) == 0 {
		return &verdict{rejected: 1}
	}

	region := RangeDesc{AddrHi: netaddr.Addr(0xffffffff), LenHi: 32}
	if info, feasible := sv.Analyze(cs); feasible {
		region = regionFrom(info, router.LeakInputs.ID(router.LeakAddr), router.LeakInputs.ID(router.LeakLen))
	}
	return &verdict{findings: []Finding{{
		Kind:      "route-leak",
		Peer:      out.Peer,
		Prefix:    vout.Prefix,
		LeakRange: region,
		OriginAS:  vout.OriginAS,
		Input:     router.LeakInputs.Named(pr.Env),
		Validated: true,
		SpreadTo:  vout.SpreadTo,
	}}}
}

// Analyze keeps one finding per (prefix, origin, spread) FindingKey.
func (routeleakScenario) Analyze(_ *Round, res *Result) { foldVerdicts(res) }

// WitnessUpdate materializes the concrete announcement behind a finding —
// the message its validating run processed — as the peer's AS presents
// it. The federated layer injects it into a shadow topology for
// cross-node confirmation.
func (routeleakScenario) WitnessUpdate(seed any, f Finding) *bgp.Update {
	su := seed.(*bgp.Update)
	return router.LeakInputs.Materialize(su, su.Attrs.ASPath.FirstAS(), f.Input)
}

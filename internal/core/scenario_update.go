package core

import (
	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/router"
	"dice/internal/solver"
)

// updateScenario is the paper's core case study: concolic exploration of
// UPDATE handling (import policy, best-path selection, export policy)
// with the §4.2 origin-misconfiguration / prefix-hijack oracle.
type updateScenario struct{}

func init() { RegisterScenario(updateScenario{}) }

func (updateScenario) Name() string { return ScenarioUpdate }

func (updateScenario) Description() string {
	return "UPDATE import/export policy exploration with the §4.2 prefix-hijack oracle"
}

func (updateScenario) Seed(live *router.Router, peer string) (any, error) {
	return announcementSeed(live, peer)
}

func (updateScenario) Declare(eng *concolic.Engine, seed any) error {
	return router.UpdateInputs.Declare(eng, seed.(*bgp.Update))
}

func (updateScenario) Execute(rc *concolic.RunContext, clone *router.Router, peer string, seed any) any {
	return clone.ExploreUpdate(rc, peer, seed.(*bgp.Update))
}

// Judge intersects one accepted path's announcement region with the
// checkpoint-time routing table (the "routes already in the routing table
// prior to starting exploration", §4.2, which is exactly the checkpoint
// process's RIB).
func (updateScenario) Judge(round *Round, p *concolic.PathResult, sv *solver.Solver) any {
	return judgeHijacks(round.Checkpoint.Config(), round.Victims(), p, sv)
}

// Analyze keeps one hijack per (victim prefix, victim origin, hijacking
// origin) FindingKey and sums the anycast false positives, then
// re-validates what it kept.
func (updateScenario) Analyze(round *Round, res *Result) {
	foldVerdicts(res)

	// Witness validation by re-execution. Each finding's witness input
	// came out of the constraint solver; concretization (e.g. the mask
	// computed from the run's concrete length) can make recorded
	// constraints imprecise, so every witness is replayed through the
	// handler on a fresh clone, with every input concrete, and must
	// reproduce the hijack before it is reported. Only the findings that survived
	// deduplication are replayed, which is why this is not the judge's.
	validated := res.Findings[:0]
	for _, fd := range res.Findings {
		pr := round.Engine.RunOnce(router.UpdateInputs.Env(fd.Input))
		out, ok := pr.Output.(router.Outcome)
		if ok && out.Accepted && fd.VictimPrefix.Covers(out.Prefix) && out.OriginAS != fd.VictimAS {
			fd.Validated = true
			fd.SpreadTo = out.SpreadTo
			validated = append(validated, fd)
		} else {
			res.WitnessesRejected++
		}
	}
	res.Findings = validated
}

package core

import (
	"fmt"
	"sort"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/router"
)

// openScenario explores a peering's OPEN-message handling — the paper's
// §3.2 future work ("the other state changing messages ... we leave them
// for future work") implemented: a well-formed OPEN the peer would send
// seeds the symbolic fields, and predicate negation enumerates every
// acceptance/rejection path of the session FSM. Each run puts the header
// through the session's own OPEN checks (bgp.OpenHeader) on a clone; the
// live peering is untouched.
type openScenario struct{}

func init() { RegisterScenario(openScenario{}) }

func (openScenario) Name() string { return ScenarioOpen }

func (openScenario) Description() string {
	return "OPEN-message session-FSM exploration (acceptance and every rejection class)"
}

func (openScenario) Seed(live *router.Router, peer string) (any, error) {
	if live.Session(peer) == nil {
		return nil, fmt.Errorf("dice: unknown peer %q", peer)
	}
	peerCfg := live.Config().FindPeer(peer)
	if peerCfg == nil {
		return nil, fmt.Errorf("dice: peer %q not in config", peer)
	}
	return &bgp.Open{
		Version:  4,
		AS:       peerCfg.AS,
		HoldTime: 90,
		RouterID: peerCfg.Addr,
	}, nil
}

func (openScenario) Declare(eng *concolic.Engine, seed any) error {
	return router.OpenInputs.Declare(eng, seed.(*bgp.Open))
}

func (openScenario) Execute(rc *concolic.RunContext, clone *router.Router, peer string, seed any) any {
	return clone.HandleOpenConcolic(rc, peer)
}

func (openScenario) Analyze(round *Round, res *Result) {
	out := &OpenExploration{
		Peer:  round.Peer,
		Paths: len(res.Report.Paths),
		Runs:  res.Report.Runs,
	}
	seen := map[string]bool{}
	for _, p := range res.Report.Paths {
		oc, ok := p.Output.(router.OpenOutcome)
		if !ok {
			continue
		}
		key := fmt.Sprintf("%v/%d/%d", oc.Established, oc.NotifyCode, oc.NotifySubcode)
		if !seen[key] {
			seen[key] = true
			out.Outcomes = append(out.Outcomes, oc)
		}
	}
	sort.Slice(out.Outcomes, func(i, j int) bool {
		a, b := out.Outcomes[i], out.Outcomes[j]
		if a.Established != b.Established {
			return a.Established
		}
		if a.NotifyCode != b.NotifyCode {
			return a.NotifyCode < b.NotifyCode
		}
		return a.NotifySubcode < b.NotifySubcode
	})
	res.Details = out
}

// OpenExploration is the result of concolically exploring a peering's
// OPEN-message handling.
type OpenExploration struct {
	Peer     string
	Paths    int
	Runs     int
	Outcomes []router.OpenOutcome // one per distinct FSM outcome
}

// String renders the outcome matrix.
func (o *OpenExploration) String() string {
	s := fmt.Sprintf("OPEN exploration for peer %s: %d paths in %d runs\n", o.Peer, o.Paths, o.Runs)
	for _, out := range o.Outcomes {
		if out.Established {
			s += "  outcome: session Established\n"
		} else {
			s += fmt.Sprintf("  outcome: rejected with NOTIFICATION code %d subcode %d\n",
				out.NotifyCode, out.NotifySubcode)
		}
	}
	return s
}

// ExploreOpen explores the live router's OPEN handling for one peer
// (the "open" scenario through the generic round machinery).
func (d *DiCE) ExploreOpen(peerName string) (*OpenExploration, error) {
	res, err := d.ExploreScenario(ScenarioOpen, peerName)
	if err != nil {
		return nil, err
	}
	return res.Details.(*OpenExploration), nil
}

package core

import (
	"fmt"
	"sort"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/router"
)

// withdrawScenario explores the withdrawal side of UPDATE handling: which
// WITHDRAWN-routes fields can a peer send to change the node's routing?
// Its oracle flags blackholing withdraws — inputs that remove the only
// route to a prefix and propagate the loss to other peers, the
// availability mirror image of the hijack oracle.
type withdrawScenario struct{}

func init() { RegisterScenario(withdrawScenario{}) }

func (withdrawScenario) Name() string { return ScenarioWithdraw }

func (withdrawScenario) Description() string {
	return "route-withdrawal exploration with a reachability-blackhole oracle"
}

func (withdrawScenario) Seed(live *router.Router, peer string) (any, error) {
	seed := live.LastObserved(peer)
	if seed == nil {
		return nil, fmt.Errorf("dice: no observed UPDATE from peer %q to explore withdrawals from", peer)
	}
	if len(seed.Withdrawn) == 0 && len(seed.NLRI) == 0 {
		return nil, fmt.Errorf("dice: seed UPDATE for %q carries no prefixes", peer)
	}
	return seed, nil
}

func (withdrawScenario) Declare(eng *concolic.Engine, seed any) error {
	return router.WithdrawInputs.Declare(eng, seed.(*bgp.Update))
}

func (withdrawScenario) Execute(rc *concolic.RunContext, clone *router.Router, peer string, seed any) any {
	return clone.ExploreWithdraw(rc, peer, seed.(*bgp.Update))
}

func (withdrawScenario) Analyze(round *Round, res *Result) {
	out := &WithdrawExploration{
		Peer:  round.Peer,
		Paths: len(res.Report.Paths),
		Runs:  res.Report.Runs,
	}
	seen := map[string]bool{}
	for _, p := range res.Report.Paths {
		oc, ok := p.Output.(router.Outcome)
		if !ok {
			continue
		}
		key := fmt.Sprintf("%v/%v/%v/%v", oc.Accepted, oc.BestChanged(), oc.Blackholed(), oc.Prefix)
		if seen[key] {
			continue
		}
		seen[key] = true
		out.Outcomes = append(out.Outcomes, oc)

		// Oracle: a withdraw that blackholes a prefix AND propagates the
		// loss beyond this node is an availability incident a single
		// flapping peer can cause. Validate the witness by re-execution
		// before reporting, like the hijack oracle does.
		if !(oc.Blackholed() && len(oc.Notified) > 0) {
			continue
		}
		fd := Finding{
			Kind:         "withdraw-blackhole",
			Peer:         round.Peer,
			Prefix:       oc.Prefix,
			VictimPrefix: oc.Prefix,
			Input: map[string]uint64{
				router.WithdrawAddr: uint64(uint32(oc.Prefix.Addr())),
				router.WithdrawLen:  uint64(oc.Prefix.Bits()),
			},
		}
		pr := round.Engine.RunOnce(router.WithdrawInputs.Env(fd.Input))
		voc, vok := pr.Output.(router.Outcome)
		if vok && voc.Blackholed() {
			fd.Validated = true
			fd.SpreadTo = voc.Notified
			res.Findings = append(res.Findings, fd)
		} else {
			res.WitnessesRejected++
		}
	}
	sort.Slice(out.Outcomes, func(i, j int) bool {
		return out.Outcomes[i].Prefix.Compare(out.Outcomes[j].Prefix) < 0
	})
	res.Details = out
}

// WithdrawExploration is the result of concolically exploring a peer's
// route withdrawals.
type WithdrawExploration struct {
	Peer     string
	Paths    int
	Runs     int
	Outcomes []router.Outcome // one per distinct RIB effect
}

// String renders the outcome matrix.
func (w *WithdrawExploration) String() string {
	s := fmt.Sprintf("withdraw exploration for peer %s: %d paths in %d runs\n", w.Peer, w.Paths, w.Runs)
	for _, out := range w.Outcomes {
		switch {
		case !out.Accepted:
			s += fmt.Sprintf("  outcome: %s — no route from this peer; RIB unchanged\n", out.Prefix)
		case out.Blackholed():
			s += fmt.Sprintf("  outcome: %s withdrawn — prefix BLACKHOLED, loss propagated to %v\n",
				out.Prefix, out.Notified)
		case out.BestChanged():
			s += fmt.Sprintf("  outcome: %s withdrawn — best path changed, re-announced to %v\n",
				out.Prefix, out.Notified)
		default:
			s += fmt.Sprintf("  outcome: %s withdrawn — alternate path already best; no change\n", out.Prefix)
		}
	}
	return s
}

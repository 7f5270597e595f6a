package core

import (
	"errors"
	"fmt"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/config"
	"dice/internal/netsim"
	"dice/internal/router"
)

// ErrSeedNotShippable marks a scenario whose seed is not a concrete
// UPDATE and therefore cannot travel to an exploration replica; the
// caller explores such targets on the node itself.
var ErrSeedNotShippable = errors.New("scenario seed is not a BGP UPDATE; explore on the node")

// ShippableSeed derives tg's scenario seed from the live node in the
// form a replica can receive: a concrete UPDATE. A missing observation
// returns *SeedUnavailableError (same contract as PrepareTarget); a
// scenario whose seed is some other type returns ErrSeedNotShippable.
func ShippableSeed(live *router.Router, tg ResolvedTarget) (*bgp.Update, error) {
	sc, ok := LookupScenario(tg.Scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (registered: %v)", tg.Scenario, ScenarioNames())
	}
	seed, err := sc.Seed(live, tg.Peer)
	if err != nil {
		return nil, &SeedUnavailableError{Err: err}
	}
	u, ok := seed.(*bgp.Update)
	if !ok {
		return nil, ErrSeedNotShippable
	}
	return u, nil
}

// PrepareRestored is the replica-side counterpart of the node agent's
// explore pipeline — the §2.4 vision made concrete: "enable remote nodes
// to checkpoint their state and process these messages in isolation over
// their checkpointed states". It runs wherever the node's domain chooses
// (e.g. a testing replica). The shipped checkpoint is restored onto a
// capture sink, never the wire, and the restored router is the
// checkpoint: the exact PrepareTarget prep (same scenario lookup, COW
// handler, declaration) runs over it with the shipped seed. A
// checkpoint-restored router has no observation history (DecodeState
// rebuilds routes and sessions, not the last-seen UPDATE templates), so
// the seed travels alongside the checkpoint instead of being derived.
// The caller runs tp.Engine.Explore() and tp.Analyze, so a replica
// reproduces the agent's per-target results finding for finding. Warm
// cross-round memory (a decoded ExploreState) may be attached via
// engOpts.State; nil explores cold.
func PrepareRestored(node string, cfg *config.Config, state []byte, tg ResolvedTarget, seed *bgp.Update, engOpts concolic.Options) (*TargetPrep, error) {
	sc, ok := LookupScenario(tg.Scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (registered: %v)", tg.Scenario, ScenarioNames())
	}
	sink := netsim.NewCaptureSink()
	ckpt, err := router.DecodeState(node, cfg, sink, state)
	if err != nil {
		return nil, err
	}
	return prepareSeeded(ckpt, sink, tg, sc, seed, engOpts, nil)
}

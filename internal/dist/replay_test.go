package dist

import (
	"os"
	"testing"

	"dice/internal/core"
)

// minimizeOpts is fedOpts plus witness minimization — the configuration
// whose parity the MinimalWitness contract depends on.
func minimizeOpts() core.FederatedOptions {
	opts := fedOpts()
	opts.Minimize = true
	return opts
}

// TestDistributedReplayValidation: the replay RPC rejects bad ingress
// and malformed trace bytes without wedging the agents.
func TestDistributedReplayValidation(t *testing.T) {
	raw, err := os.ReadFile("../../examples/replay/trace.mrtl")
	if err != nil {
		t.Fatal(err)
	}
	coord := loopbackCoordinator(t, leakTopo3(), fedOpts())
	if _, err := coord.Replay("nonesuch", "customer", raw); err == nil {
		t.Error("replay accepted an ingress node with no agent")
	}
	if _, err := coord.Replay("provider", "nonesuch", raw); err == nil {
		t.Error("replay accepted an unknown ingress peer")
	}
	if _, err := coord.Replay("provider", "customer", raw[:10]); err == nil {
		t.Error("replay accepted truncated trace bytes")
	}
	// None of the failures may enter the replay history: reestablish
	// re-runs the history on every reconnect, and a permanently failing
	// entry would turn each recovery into a failure.
	coord.replayMu.Lock()
	histLen := len(coord.replayHistory)
	coord.replayMu.Unlock()
	if histLen != 0 {
		t.Errorf("failed replays left %d history entries; recovery would re-run them forever", histLen)
	}
	// The fleet still rounds cleanly after the rejected calls.
	if _, err := coord.Round(); err != nil {
		t.Fatalf("round after rejected replays: %v", err)
	}
}

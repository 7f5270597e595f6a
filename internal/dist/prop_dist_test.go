package dist

import (
	"errors"
	"testing"
)

// atProps is a custom property set whose `at` clause the distributed
// backend can only answer remotely (query_oracle WantProps): the leaked
// route must still carry the boundary community where it was installed,
// and the forward path must never traverse the upstream AS. Both fire
// on leakTopo3's confirmed leak.
func atProps() []string {
	return []string{
		`property leak_still_tagged { kind "leak-tagged"; when community boundary; at community boundary; assert never installed; }`,
		`property avoid_upstream { kind "avoid-upstream"; when community boundary; assert never reachable via 65003; }`,
	}
}

// TestPropMatchBoundedByHello: an agent's `at` verdicts index the
// property list the coordinator shipped in its hello, so an answer longer
// than that list is a malformed frame, not evidence.
func TestPropMatchBoundedByHello(t *testing.T) {
	opts := fedOpts()
	opts.Properties = atProps()
	c := loopbackCoordinator(t, leakTopo3(), opts)
	if _, err := c.routeView(&QueryOracleResult{PropMatch: make([]bool, len(c.propSrcs))}); err != nil {
		t.Errorf("a verdict per shipped property: %v", err)
	}
	if _, err := c.routeView(&QueryOracleResult{PropMatch: make([]bool, len(c.propSrcs)+1)}); !errors.Is(err, errFrame) {
		t.Errorf("one verdict too many returned %v, want a malformed-frame error", err)
	}
}

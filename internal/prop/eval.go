package prop

import (
	"fmt"

	"dice/internal/bgp"
	"dice/internal/filter"
	"dice/internal/netaddr"
)

// Env is what a property predicate evaluates against: one route (the
// witness announcement for `when`, a node's installed best route for
// `at`) lifted into the filter evaluator's Subject, plus the
// property-only context — the flattened AS path for `via` and the
// topology's resolved boundary community for `community boundary`.
type Env struct {
	Subject  *filter.Subject
	ASNs     []uint16
	Boundary uint32
}

// NewEnv lifts concrete route data into an Env.
func NewEnv(prefix netaddr.Prefix, attrs *bgp.Attrs, boundary uint32) *Env {
	var asns []uint16
	for _, seg := range attrs.ASPath {
		asns = append(asns, seg.ASNs...)
	}
	return &Env{Subject: filter.SubjectFromRoute(prefix, attrs), ASNs: asns, Boundary: boundary}
}

// holds evaluates a property predicate over env through filter's
// evaluator, answering the two property-only leaves here.
func (env *Env) holds(e Expr) bool {
	return filter.EvalConcrete(e, env.Subject, env.leaf)
}

func (env *Env) leaf(e filter.Expr) bool {
	switch t := e.(type) {
	case *BoundaryPred:
		for _, c := range env.Subject.Communities {
			if c == env.Boundary {
				return true
			}
		}
		return false
	case *ViaPred:
		for _, as := range env.ASNs {
			if as == t.AS {
				return true
			}
		}
		return false
	}
	// Neither parser produces any other node; reaching here means AST
	// drift. Same loud-failure rule as the filter evaluator: never
	// miscompile a predicate to false.
	panic(fmt.Sprintf("prop: unhandled predicate node %T", e))
}

// Phase is one propagation phase's telemetry (UPDATE or WITHDRAW): how
// many delivery steps ran, how many deliveries were still pending when
// the step budget hit (0 means converged), and the per-wave delivery
// counts.
type Phase struct {
	Steps   int
	Pending int
	Waves   []int
}

// NodeFacts describes one node (beyond the injection pair) that
// installed the witness as its best route, plus its forward trace.
// AtMatch carries the per-property `at` verdicts about the installed
// route, answered where the route lives (Compiled.AtMatches, on the node
// itself when distributed) and indexed like the property list passed to
// Evaluate. Without them, `at` clauses conservatively match.
type NodeFacts struct {
	Name      string
	Hops      int
	Terminal  string
	Delivered bool
	Path      []string // forward-trace node names, origin first, terminal last
	AtMatch   []bool
}

// Facts is everything a witness check observed, in collection order:
// UPDATE propagation, per-node installation + forward traces, WITHDRAW
// propagation, surviving stale nodes. Both backends fill one of these
// and hand it to Evaluate, which is the entire oracle logic — so the
// backends cannot drift.
type Facts struct {
	Node     string // injection target (the node the witness was sent to)
	Peer     string // injecting peer
	Boundary uint32 // resolved no-export boundary community
	MaxSteps int    // per-phase propagation step budget
	Witness  *Env   // the witness announcement, for `when` guards

	Update Phase
	Nodes  []NodeFacts // sorted by name; only witness-installed nodes

	// Withdraw phase facts are meaningful only when Update converged
	// (collection stops early otherwise, like the original oracles).
	Withdraw Phase
	Stale    []string // sorted node names where the witness survived WITHDRAW

	// NodeAS resolves a node name to its AS number for `never reachable
	// via` assertions; nil disables via checks.
	NodeAS func(name string) (uint16, bool)
}

// Violation is one property violation. The caller owns witness
// attribution (source node, peer, prefix); Evaluate reports the
// violating node and rendered detail.
type Violation struct {
	Kind     string
	Node     string
	Hops     int
	Detail   string
	Waves    int
	WaveTail []int
}

// WaveTailLen bounds the per-wave delivery counts kept on a
// persistent-oscillation violation: the tail is what distinguishes
// genuine divergence from slow convergence, so only the final waves are
// retained.
const WaveTailLen = 8

// WaveTail returns the final (up to WaveTailLen) entries of waves.
// Shared by both backends so their oscillation verdicts render — and
// compare — identically.
func WaveTail(waves []int) []int {
	if len(waves) > WaveTailLen {
		waves = waves[len(waves)-WaveTailLen:]
	}
	return append([]int(nil), waves...)
}

// OscillationDetail renders the bounded-propagation verdict one way for
// both backends (the parity tests compare violation strings verbatim).
func OscillationDetail(phase string, maxSteps, pending int, waves []int) string {
	return fmt.Sprintf("%s after %d propagation steps (%d deliveries still pending); %d waves, tail deliveries %v",
		phase, maxSteps, pending, len(waves), WaveTail(waves))
}

// RouteLeakDetail renders the boundary-escape verdict — the exact
// string the hard-coded route-leak oracle produced, emitted when a
// `never installed` property is guarded by `when community boundary`.
func RouteLeakDetail(boundary uint32, source, at string) string {
	return fmt.Sprintf("advertisement carrying the no-export community (%d:%d) escaped AS boundary %s and was installed at %s",
		boundary>>16, boundary&0xffff, source, at)
}

// BlackholeDetail renders the forward-trace dead-end verdict.
func BlackholeDetail(from string, hops int, terminal string) string {
	return fmt.Sprintf("traffic from %s forward-traces %d hops and dead-ends at %s", from, hops, terminal)
}

// StaleDetail renders the survived-WITHDRAW verdict over the sorted
// stale node list.
func StaleDetail(stale []string) string {
	return fmt.Sprintf("witness route survived its own WITHDRAW at %v", stale)
}

// Evaluate runs every property over the collected facts, in four stages
// that reproduce the hard-coded oracle order exactly: (1) UPDATE
// convergence — when deliveries are still pending, only convergence
// assertions fire and evaluation stops (the remaining facts would be
// mid-churn noise); (2) temporal assertions over the converged UPDATE
// propagation; (3) per-node spatial assertions, nodes outer and
// properties inner, so one node's violations group together; (4)
// WITHDRAW convergence, then staleness. Within a stage, properties
// apply in list order — Merge puts the builtin kinds first, which is
// what makes property-produced snapshots byte-identical to the
// originals.
func Evaluate(props []*Compiled, f *Facts) []Violation {
	var out []Violation
	holds := make([]bool, len(props))
	for i, c := range props {
		holds[i] = c.WhenHolds(f.Witness)
	}

	if f.Update.Pending > 0 {
		for i, c := range props {
			if !holds[i] {
				continue
			}
			if _, ok := c.Assert.(*ConvergesAssertion); ok {
				out = append(out, Violation{
					Kind: c.Kind, Node: f.Node,
					Detail: OscillationDetail("no convergence", f.MaxSteps, f.Update.Pending, f.Update.Waves),
					Waves:  len(f.Update.Waves), WaveTail: WaveTail(f.Update.Waves),
				})
			}
		}
		return out
	}

	for i, c := range props {
		if !holds[i] {
			continue
		}
		switch a := c.Assert.(type) {
		case *ConvergesAssertion:
			if a.Within > 0 && f.Update.Steps > a.Within {
				out = append(out, Violation{
					Kind: c.Kind, Node: f.Node,
					Detail: fmt.Sprintf("converged in %d propagation steps, exceeding the %d-step bound; %d waves, tail deliveries %v",
						f.Update.Steps, a.Within, len(f.Update.Waves), WaveTail(f.Update.Waves)),
					Waves: len(f.Update.Waves), WaveTail: WaveTail(f.Update.Waves),
				})
			}
		case *QuietAfterAssertion:
			if len(f.Update.Waves) > a.Wave {
				out = append(out, Violation{
					Kind: c.Kind, Node: f.Node,
					Detail: fmt.Sprintf("deliveries continued past wave %d: %d waves, tail deliveries %v",
						a.Wave, len(f.Update.Waves), WaveTail(f.Update.Waves)),
					Waves: len(f.Update.Waves), WaveTail: WaveTail(f.Update.Waves),
				})
			}
		}
	}

	for ni := range f.Nodes {
		n := &f.Nodes[ni]
		for i, c := range props {
			if !holds[i] || !atMatches(c, i, n) {
				continue
			}
			switch a := c.Assert.(type) {
			case *NeverInstalledAssertion:
				detail := fmt.Sprintf("witness route was installed at %s, forbidden by property %s", n.Name, c.Name)
				if c.boundaryWhen {
					detail = RouteLeakDetail(f.Boundary, f.Node, n.Name)
				}
				out = append(out, Violation{Kind: c.Kind, Node: n.Name, Hops: n.Hops, Detail: detail})
			case *NeverBlackholedAssertion:
				if !n.Delivered && n.Hops >= 2 {
					out = append(out, Violation{
						Kind: c.Kind, Node: n.Name, Hops: n.Hops,
						Detail: BlackholeDetail(n.Name, n.Hops, n.Terminal),
					})
				}
			case *NeverViaAssertion:
				if f.NodeAS == nil {
					continue
				}
				for _, hop := range n.Path {
					if as, ok := f.NodeAS(hop); ok && as == a.AS {
						out = append(out, Violation{
							Kind: c.Kind, Node: n.Name, Hops: n.Hops,
							Detail: fmt.Sprintf("forwarding path from %s traverses %s (AS %d), forbidden by property %s",
								n.Name, hop, a.AS, c.Name),
						})
						break
					}
				}
			}
		}
	}

	if f.Withdraw.Pending > 0 {
		for i, c := range props {
			if !holds[i] {
				continue
			}
			if _, ok := c.Assert.(*ConvergesAssertion); ok {
				out = append(out, Violation{
					Kind: c.Kind, Node: f.Node,
					Detail: OscillationDetail("WITHDRAW did not converge", f.MaxSteps, f.Withdraw.Pending, f.Withdraw.Waves),
					Waves:  len(f.Withdraw.Waves), WaveTail: WaveTail(f.Withdraw.Waves),
				})
			}
		}
		return out
	}

	if len(f.Stale) > 0 {
		for i, c := range props {
			if !holds[i] {
				continue
			}
			if _, ok := c.Assert.(*NeverStaleAssertion); ok {
				out = append(out, Violation{Kind: c.Kind, Node: f.Stale[0], Detail: StaleDetail(f.Stale)})
			}
		}
	}
	return out
}

// atMatches reads a property's `at` verdict about one node's installed
// route; a node that carries no verdicts matches conservatively.
func atMatches(c *Compiled, idx int, n *NodeFacts) bool {
	if c.At == nil || idx >= len(n.AtMatch) {
		return true
	}
	return n.AtMatch[idx]
}

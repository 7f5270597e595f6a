package prop

import (
	"fmt"
	"strconv"

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
// violating node and the detail's operands (Cause), which AppendDetail
// renders only when a report line is.
type Violation struct {
	Kind     string
	Node     string
	Hops     int
	Cause    Cause
	Waves    int
	WaveTail []int
}

// CauseKind names which verdict a violation's detail renders.
type CauseKind uint8

// The verdicts, one per detail format. A Cause's N, M, Name, Property
// and Nodes mean what each comment says; the rest of a detail comes from
// its Violation (Node, Hops, Waves, WaveTail).
const (
	CauseNone            CauseKind = iota
	CauseNoConvergence             // UPDATE pending at the budget: M steps, N deliveries pending
	CauseWithdrawPending           // the same for WITHDRAW
	CauseSlowConvergence           // converged in N steps, over the M-step bound
	CauseNotQuiet                  // deliveries continued past wave M
	CauseRouteLeak                 // Boundary escaped AS boundary Name, installed at Node
	CauseInstalled                 // installed at Node, forbidden by Property
	CauseBlackhole                 // from Node, Hops hops, dead-ends at Name
	CauseVia                       // from Node, traverses Name (AS N), forbidden by Property
	CauseStale                     // survived its own WITHDRAW at Nodes
)

// Cause is a violation's detail kept as its operands, rendered
// (AppendTo) only when a report line is: a 64-AS round reports ≈ 1 900
// violations, and rendering each detail as Evaluate found it cost a
// string and fmt's boxed arguments apiece. The names it holds are the
// facts' own, so building one allocates nothing.
type Cause struct {
	Kind     CauseKind
	N, M     int
	Boundary uint32
	Name     string
	Property string
	Nodes    []string
}

// Detail renders the violation's detail text.
func (v Violation) Detail() string {
	return string(v.AppendDetail(nil))
}

// AppendDetail appends the violation's detail text to dst.
func (v *Violation) AppendDetail(dst []byte) []byte {
	return v.Cause.AppendTo(dst, v.Node, v.Hops, v.Waves, v.WaveTail)
}

// AppendTo appends the detail text of a violation at node with the
// given hop count and wave telemetry to dst: one format per CauseKind,
// the exact text the parity tests and goldens compare.
func (c *Cause) AppendTo(dst []byte, node string, hops, waves int, tail []int) []byte {
	switch c.Kind {
	case CauseNoConvergence, CauseWithdrawPending:
		if c.Kind == CauseNoConvergence {
			dst = append(dst, "no convergence"...)
		} else {
			dst = append(dst, "WITHDRAW did not converge"...)
		}
		dst = append(strconv.AppendInt(append(dst, " after "...), int64(c.M), 10), " propagation steps ("...)
		dst = append(strconv.AppendInt(dst, int64(c.N), 10), " deliveries still pending); "...)
		return appendWaves(dst, waves, tail)
	case CauseSlowConvergence:
		dst = append(strconv.AppendInt(append(dst, "converged in "...), int64(c.N), 10), " propagation steps, exceeding the "...)
		dst = append(strconv.AppendInt(dst, int64(c.M), 10), "-step bound; "...)
		return appendWaves(dst, waves, tail)
	case CauseNotQuiet:
		dst = append(strconv.AppendInt(append(dst, "deliveries continued past wave "...), int64(c.M), 10), ": "...)
		return appendWaves(dst, waves, tail)
	case CauseRouteLeak:
		dst = append(dst, "advertisement carrying the no-export community ("...)
		dst = strconv.AppendUint(dst, uint64(c.Boundary>>16), 10)
		dst = strconv.AppendUint(append(dst, ':'), uint64(c.Boundary&0xffff), 10)
		dst = append(append(dst, ") escaped AS boundary "...), c.Name...)
		return append(append(dst, " and was installed at "...), node...)
	case CauseInstalled:
		dst = append(append(dst, "witness route was installed at "...), node...)
		return append(append(dst, ", forbidden by property "...), c.Property...)
	case CauseBlackhole:
		dst = append(append(dst, "traffic from "...), node...)
		dst = append(strconv.AppendInt(append(dst, " forward-traces "...), int64(hops), 10), " hops and dead-ends at "...)
		return append(dst, c.Name...)
	case CauseVia:
		dst = append(append(dst, "forwarding path from "...), node...)
		dst = append(append(dst, " traverses "...), c.Name...)
		dst = append(strconv.AppendInt(append(dst, " (AS "...), int64(c.N), 10), "), forbidden by property "...)
		return append(dst, c.Property...)
	case CauseStale:
		return AppendList(append(dst, "witness route survived its own WITHDRAW at "...), c.Nodes)
	}
	return dst
}

// appendWaves appends the wave telemetry the convergence details end
// with: the wave count and the retained tail.
func appendWaves(dst []byte, waves int, tail []int) []byte {
	dst = append(strconv.AppendInt(dst, int64(waves), 10), " waves, tail deliveries ["...)
	for i, n := range tail {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return append(dst, ']')
}

// AppendList appends ss the way fmt's %v prints a []string: bracketed,
// space-separated ("[]" for nil or empty).
func AppendList(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, s...)
	}
	return append(dst, ']')
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
// originals. The violations are appended to dst, so a caller judging
// many witnesses can reuse one buffer.
func Evaluate(dst []Violation, props []*Compiled, f *Facts) []Violation {
	out := dst
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
					Cause: Cause{Kind: CauseNoConvergence, N: f.Update.Pending, M: f.MaxSteps},
					Waves: len(f.Update.Waves), WaveTail: WaveTail(f.Update.Waves),
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
					Cause: Cause{Kind: CauseSlowConvergence, N: f.Update.Steps, M: a.Within},
					Waves: len(f.Update.Waves), WaveTail: WaveTail(f.Update.Waves),
				})
			}
		case *QuietAfterAssertion:
			if len(f.Update.Waves) > a.Wave {
				out = append(out, Violation{
					Kind: c.Kind, Node: f.Node,
					Cause: Cause{Kind: CauseNotQuiet, M: a.Wave},
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
				cause := Cause{Kind: CauseInstalled, Property: c.Name}
				if c.boundaryWhen {
					cause = Cause{Kind: CauseRouteLeak, Boundary: f.Boundary, Name: f.Node}
				}
				out = append(out, Violation{Kind: c.Kind, Node: n.Name, Hops: n.Hops, Cause: cause})
			case *NeverBlackholedAssertion:
				if !n.Delivered && n.Hops >= 2 {
					out = append(out, Violation{
						Kind: c.Kind, Node: n.Name, Hops: n.Hops,
						Cause: Cause{Kind: CauseBlackhole, Name: n.Terminal},
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
							Cause: Cause{Kind: CauseVia, Name: hop, N: int(a.AS), Property: c.Name},
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
					Cause: Cause{Kind: CauseWithdrawPending, N: f.Withdraw.Pending, M: f.MaxSteps},
					Waves: len(f.Withdraw.Waves), WaveTail: WaveTail(f.Withdraw.Waves),
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
				out = append(out, Violation{Kind: c.Kind, Node: f.Stale[0], Cause: Cause{Kind: CauseStale, Nodes: f.Stale}})
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

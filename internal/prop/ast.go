// Package prop implements DiCE's declarative property language: the
// operator-stated cross-node invariants the paper checks against live
// federated nodes. A property names an invariant kind, optionally guards
// on the witness announcement (`when`) and on the route a node actually
// installed (`at`), and asserts one cross-node condition — spatial
// (`never installed`, `never blackholed`, `never stale`, `never
// reachable via AS`) or temporal over the per-wave delivery tail
// (`eventually converges within N steps`, `always quiet after wave W`).
//
// The language is parsed over internal/filter's exported token cursor
// and its route predicates ARE internal/filter expressions — parsed by
// filter's expression grammar and evaluated by the evaluator the routing
// policies use; this package adds two leaves (`community boundary`,
// `via N`) through the grammar's one hook. So the two languages share
// one vocabulary, one set of line-numbered errors, and one set of
// unknown-node drift guards. Compiled properties evaluate over Facts —
// the witness-attributed pre/post observations both backends collect —
// producing the exact violations the previously hard-coded oracles did.
package prop

import (
	"fmt"
	"strings"

	"dice/internal/filter"
)

// ParseError is the property language's line-numbered syntax error. It
// is the filter package's error type with Lang set to "property".
type ParseError = filter.ParseError

// Expr is a boolean property predicate: a filter expression (the two
// languages share one grammar, one AST and one evaluator) whose leaves
// may also be BoundaryPred and ViaPred, the property-only predicates
// that need topology context (the resolved no-export boundary community,
// the forwarding path).
type Expr = filter.Expr

// BoundaryPred is `community boundary`: the subject carries the
// topology's resolved no-export boundary community, whatever its value.
type BoundaryPred struct{ filter.Leaf }

func (e *BoundaryPred) String() string { return "community boundary" }

// ViaPred is `via N`: the subject's AS path contains AS N.
type ViaPred struct {
	filter.Leaf
	AS uint16
}

func (e *ViaPred) String() string { return fmt.Sprintf("via %d", e.AS) }

// Assertion is the invariant a property states.
type Assertion interface {
	assertion()
	String() string
}

// ConvergesAssertion is `eventually converges [within N steps]`. With no
// bound it asserts convergence inside the experiment's propagation
// budget (the oscillation oracle); with a bound it additionally rejects
// slow convergence past N delivery steps.
type ConvergesAssertion struct{ Within int }

func (*ConvergesAssertion) assertion() {}
func (a *ConvergesAssertion) String() string {
	if a.Within > 0 {
		return fmt.Sprintf("eventually converges within %d steps", a.Within)
	}
	return "eventually converges"
}

// NeverInstalledAssertion is `never installed`: no node (beyond the
// injection pair) may adopt the witness as its best route.
type NeverInstalledAssertion struct{}

func (*NeverInstalledAssertion) assertion()     {}
func (*NeverInstalledAssertion) String() string { return "never installed" }

// NeverBlackholedAssertion is `never blackholed`: no node that installed
// the witness may forward-trace two or more hops into a dead end.
type NeverBlackholedAssertion struct{}

func (*NeverBlackholedAssertion) assertion()     {}
func (*NeverBlackholedAssertion) String() string { return "never blackholed" }

// NeverStaleAssertion is `never stale`: the witness route must not
// survive its own WITHDRAW anywhere it was installed.
type NeverStaleAssertion struct{}

func (*NeverStaleAssertion) assertion()     {}
func (*NeverStaleAssertion) String() string { return "never stale" }

// NeverViaAssertion is `never reachable via N`: no forwarding path from
// a node that installed the witness may traverse a router in AS N.
type NeverViaAssertion struct{ AS uint16 }

func (*NeverViaAssertion) assertion() {}
func (a *NeverViaAssertion) String() string {
	return fmt.Sprintf("never reachable via %d", a.AS)
}

// QuietAfterAssertion is `always quiet after wave N`: the UPDATE
// propagation must deliver nothing past its Nth virtual-time wave.
type QuietAfterAssertion struct{ Wave int }

func (*QuietAfterAssertion) assertion() {}
func (a *QuietAfterAssertion) String() string {
	return fmt.Sprintf("always quiet after wave %d", a.Wave)
}

// Property is one parsed property definition.
type Property struct {
	Name   string
	Kind   string    // violation kind this property reports as
	When   Expr      // witness guard; nil means always
	At     Expr      // installed-route predicate; nil means any route
	Assert Assertion // the invariant
}

// String renders canonical one-line source that reparses to an equal
// Property (the round-trip the fuzz tests pin).
func (p *Property) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "property %s { kind %q;", p.Name, p.Kind)
	if p.When != nil {
		fmt.Fprintf(&b, " when %s;", p.When)
	}
	if p.At != nil {
		fmt.Fprintf(&b, " at %s;", p.At)
	}
	fmt.Fprintf(&b, " assert %s; }", p.Assert)
	return b.String()
}

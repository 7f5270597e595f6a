package prop

import (
	_ "embed"
	"fmt"
)

// Compiled is a validated, evaluable property: the assertion is one the
// evaluator handles, and an `at` clause sits only on a node-scoped one.
type Compiled struct {
	Name   string
	Kind   string
	When   Expr
	At     Expr
	Assert Assertion

	// boundaryWhen marks a guard that is exactly `community boundary`:
	// its never-installed violations render the boundary-escape detail
	// the hard-coded route-leak oracle produced.
	boundaryWhen bool

	source string
}

// Source returns canonical one-line source for the property — what the
// coordinator ships to agents in hello.
func (c *Compiled) Source() string { return c.source }

// HasAt reports whether the property carries an `at` route predicate,
// which distributed checking must answer remotely (query_oracle
// WantProps, wire v4).
func (c *Compiled) HasAt() bool { return c.At != nil }

// Compile validates one parsed property.
func Compile(p *Property) (*Compiled, error) {
	if p.Kind == "" {
		return nil, fmt.Errorf("property %s: empty kind", p.Name)
	}
	if p.Assert == nil {
		return nil, fmt.Errorf("property %s: no assertion", p.Name)
	}
	switch p.Assert.(type) {
	case *ConvergesAssertion, *NeverInstalledAssertion, *NeverBlackholedAssertion,
		*NeverStaleAssertion, *NeverViaAssertion, *QuietAfterAssertion:
	default:
		return nil, fmt.Errorf("property %s: unhandled assertion node %T", p.Name, p.Assert)
	}
	if p.At != nil {
		switch p.Assert.(type) {
		case *NeverInstalledAssertion, *NeverBlackholedAssertion, *NeverViaAssertion:
		default:
			return nil, fmt.Errorf("property %s: at clause requires a node-scoped assertion (never installed/blackholed/reachable via), not %q",
				p.Name, p.Assert)
		}
	}
	_, boundary := p.When.(*BoundaryPred)
	return &Compiled{
		Name: p.Name, Kind: p.Kind, When: p.When, At: p.At, Assert: p.Assert,
		boundaryWhen: boundary, source: p.String(),
	}, nil
}

// WhenHolds evaluates the property's witness guard; properties without
// one always apply.
func (c *Compiled) WhenHolds(witness *Env) bool {
	if c.When == nil {
		return true
	}
	if witness == nil {
		return true
	}
	return witness.holds(c.When)
}

// AtMatches evaluates the property's `at` route predicate over env;
// properties without one match any route. Agents answer query_oracle
// WantProps through this.
func (c *Compiled) AtMatches(env *Env) bool {
	if c.At == nil || env == nil {
		return true
	}
	return env.holds(c.At)
}

// CompileSources parses and compiles a list of property sources (each
// entry may hold one or more definitions, like a topo.json `properties`
// array entry or a .prop file).
func CompileSources(srcs []string) ([]*Compiled, error) {
	var out []*Compiled
	for i, src := range srcs {
		ps, err := ParseAll(src)
		if err != nil {
			return nil, fmt.Errorf("properties[%d]: %w", i, err)
		}
		for _, p := range ps {
			c, err := Compile(p)
			if err != nil {
				return nil, fmt.Errorf("properties[%d]: %w", i, err)
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// The two bundled re-expressions of previously hard-coded oracles. They
// are embedded source (not Go) deliberately: the builtin route-leak and
// stale-route oracles ARE these files, so golden parity between "hard
// coded" and "declared" is true by construction and re-proved by the
// tests that load the same files as external replacements.

//go:embed props/route_leak.prop
var BuiltinRouteLeakSource string

//go:embed props/stale_route.prop
var BuiltinStaleRouteSource string

// builtinSources is the full builtin oracle set in evaluation order:
// oscillation, route-leak, blackhole, stale. The order is part of the
// snapshot format — violations append in property list order.
var builtinSources = []string{
	`property convergence { kind "persistent-oscillation"; assert eventually converges; }`,
	BuiltinRouteLeakSource,
	`property forwarding_delivers { kind "multi-hop-blackhole"; assert never blackholed; }`,
	BuiltinStaleRouteSource,
}

// Builtins compiles the four builtin cross-node oracles.
func Builtins() []*Compiled {
	cs, err := CompileSources(builtinSources)
	if err != nil {
		panic(fmt.Sprintf("prop: builtin properties failed to compile: %v", err))
	}
	return cs
}

// Merge resolves operator properties against the builtins: a custom
// property whose kind matches a builtin replaces it in place (same
// evaluation position, so snapshot ordering is stable); customs with
// new kinds append after. Loading the bundled .prop files as custom
// properties therefore reproduces the builtin findings byte for byte —
// the parity guarantee the golden tests pin.
func Merge(custom []*Compiled) []*Compiled {
	base := Builtins()
	out := make([]*Compiled, 0, len(base)+len(custom))
	used := make([]bool, len(custom))
	for _, b := range base {
		replaced := false
		for i, c := range custom {
			if c.Kind == b.Kind {
				out = append(out, c)
				used[i] = true
				replaced = true
			}
		}
		if !replaced {
			out = append(out, b)
		}
	}
	for i, c := range custom {
		if !used[i] {
			out = append(out, c)
		}
	}
	return out
}

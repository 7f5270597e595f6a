package prop

import (
	"fmt"

	"dice/internal/filter"
)

// Parse parses exactly one `property name { ... }` definition.
func Parse(src string) (*Property, error) {
	ps, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(ps) != 1 {
		return nil, &ParseError{Line: 1, Lang: "property",
			Msg: fmt.Sprintf("expected exactly one property, found %d", len(ps))}
	}
	return ps[0], nil
}

// ParseAll parses a sequence of property definitions.
func ParseAll(src string) ([]*Property, error) {
	p, err := filter.NewCursor(src, "property", leaf)
	if err != nil {
		return nil, err
	}
	var out []*Property
	for p.Peek().Kind != filter.TokEOF {
		pr, err := property(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}

// property := "property" IDENT "{" clause* "}"
// clause   := "kind" STRING ";" | "when" expr ";" | "at" expr ";"
//
//	| "assert" assertion ";"
func property(p *filter.Cursor) (*Property, error) {
	if err := p.ExpectKeyword("property"); err != nil {
		return nil, err
	}
	name, err := p.Expect(filter.TokIdent, "property name")
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(filter.TokLBrace, "'{'"); err != nil {
		return nil, err
	}
	pr := &Property{Name: name.Text}
	for p.Peek().Kind != filter.TokRBrace {
		t := p.Peek()
		if t.Kind == filter.TokEOF {
			return nil, p.Errf("unterminated property %q", pr.Name)
		}
		if t.Kind != filter.TokIdent {
			return nil, p.Errf("expected clause, found %s", t)
		}
		switch t.Text {
		case "kind":
			p.Next()
			ks, err := p.Expect(filter.TokString, "kind string")
			if err != nil {
				return nil, err
			}
			if pr.Kind != "" {
				return nil, p.Errf("duplicate kind clause")
			}
			if !validKind(ks.Text) {
				return nil, &ParseError{Line: ks.Line, Lang: "property",
					Msg: fmt.Sprintf("bad kind %q: want letters, digits, '-', '_' or '.'", ks.Text)}
			}
			pr.Kind = ks.Text
		case "when":
			p.Next()
			if pr.When != nil {
				return nil, p.Errf("duplicate when clause")
			}
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			pr.When = e
		case "at":
			p.Next()
			if pr.At != nil {
				return nil, p.Errf("duplicate at clause")
			}
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			pr.At = e
		case "assert":
			p.Next()
			if pr.Assert != nil {
				return nil, p.Errf("duplicate assert clause")
			}
			a, err := assertion(p)
			if err != nil {
				return nil, err
			}
			pr.Assert = a
		default:
			return nil, p.Errf("unknown clause %q", t.Text)
		}
		if _, err := p.Expect(filter.TokSemi, "';'"); err != nil {
			return nil, err
		}
	}
	if pr.Kind == "" {
		return nil, p.Errf("property %q has no kind clause", pr.Name)
	}
	if pr.Assert == nil {
		return nil, p.Errf("property %q has no assert clause", pr.Name)
	}
	p.Next() // consume }
	return pr, nil
}

// validKind restricts kind strings to characters %q renders verbatim, so
// Property.String reparses to an equal Property.
func validKind(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '-' || c == '_' || c == '.' ||
			c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			continue
		}
		return false
	}
	return true
}

// assertion := "eventually" "converges" ("within" N "steps")?
//
//	| "never" ("installed" | "blackholed" | "stale" | "reachable" "via" N)
//	| "always" "quiet" "after" "wave" N
func assertion(p *filter.Cursor) (Assertion, error) {
	t := p.Peek()
	if t.Kind != filter.TokIdent {
		return nil, p.Errf("expected assertion, found %s", t)
	}
	switch t.Text {
	case "eventually":
		p.Next()
		if err := p.ExpectKeyword("converges"); err != nil {
			return nil, err
		}
		a := &ConvergesAssertion{}
		if w := p.Peek(); w.Kind == filter.TokIdent && w.Text == "within" {
			p.Next()
			n, err := p.Number(31)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				return nil, p.Errf("within bound must be positive")
			}
			if err := p.ExpectKeyword("steps"); err != nil {
				return nil, err
			}
			a.Within = int(n)
		}
		return a, nil
	case "never":
		p.Next()
		t2 := p.Peek()
		if t2.Kind != filter.TokIdent {
			return nil, p.Errf("expected assertion after never, found %s", t2)
		}
		switch t2.Text {
		case "installed":
			p.Next()
			return &NeverInstalledAssertion{}, nil
		case "blackholed":
			p.Next()
			return &NeverBlackholedAssertion{}, nil
		case "stale":
			p.Next()
			return &NeverStaleAssertion{}, nil
		case "reachable":
			p.Next()
			if err := p.ExpectKeyword("via"); err != nil {
				return nil, err
			}
			n, err := p.Number(16)
			if err != nil {
				return nil, err
			}
			return &NeverViaAssertion{AS: uint16(n)}, nil
		}
		return nil, p.Errf("unknown assertion %q after never", t2.Text)
	case "always":
		p.Next()
		if err := p.ExpectKeyword("quiet"); err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("after"); err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("wave"); err != nil {
			return nil, err
		}
		n, err := p.Number(31)
		if err != nil {
			return nil, err
		}
		return &QuietAfterAssertion{Wave: int(n)}, nil
	}
	return nil, p.Errf("unknown assertion %q", t.Text)
}

// leaf is the property language's addition to filter's expression
// grammar (a filter.LeafParser): the two predicates that need topology
// context. Everything else in a `when` or `at` clause — connectives,
// parentheses, literals, field comparisons, `net ~`, `community (a,b)` —
// is filter's own grammar.
//
//	leaf := "community" "boundary" | "via" N
func leaf(p *filter.Cursor) (filter.Expr, error) {
	t := p.Peek()
	if t.Kind != filter.TokIdent {
		if t.Kind != filter.TokLParen {
			// No primary of either grammar starts here; say so in this
			// language's word for it.
			return nil, p.Errf("expected predicate, found %s", t)
		}
		return nil, nil
	}
	switch t.Text {
	case "community":
		switch n := p.PeekAt(1); {
		case n.Kind == filter.TokIdent && n.Text == "boundary":
			p.Next()
			p.Next()
			return &BoundaryPred{}, nil
		case n.Kind != filter.TokLParen:
			p.Next()
			_, err := p.Expect(filter.TokLParen, "'(' or 'boundary'")
			return nil, err
		}
	case "via":
		p.Next()
		n, err := p.Number(16)
		if err != nil {
			return nil, err
		}
		return &ViaPred{AS: uint16(n)}, nil
	}
	return nil, nil
}

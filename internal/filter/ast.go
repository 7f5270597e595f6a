package filter

import (
	"fmt"
	"strings"

	"dice/internal/netaddr"
)

// Field names the route properties a filter can test or set.
type Field int

// Fields available in filter programs.
const (
	FieldNet       Field = iota // net            — the NLRI prefix (address part)
	FieldNetLen                 // net.len        — the NLRI prefix length
	FieldPathLen                // bgp_path.len   — AS path length
	FieldOriginAS               // bgp_path.origin— originating AS (rightmost)
	FieldFirstAS                // bgp_path.first — neighboring AS (leftmost)
	FieldOrigin                 // origin         — ORIGIN attribute (igp/egp/incomplete)
	FieldLocalPref              // local_pref
	FieldMED                    // med
)

var fieldNames = map[string]Field{
	"net":             FieldNet,
	"net.len":         FieldNetLen,
	"bgp_path.len":    FieldPathLen,
	"bgp_path.origin": FieldOriginAS,
	"bgp_path.first":  FieldFirstAS,
	"origin":          FieldOrigin,
	"local_pref":      FieldLocalPref,
	"med":             FieldMED,
}

func (f Field) String() string {
	for name, v := range fieldNames {
		if v == f {
			return name
		}
	}
	return fmt.Sprintf("field(%d)", int(f))
}

// CmpKind is a comparison operator in the filter language.
type CmpKind int

// Comparison operators.
const (
	CmpEq CmpKind = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

var cmpNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

func (c CmpKind) String() string { return cmpNames[c] }

// Expr is a boolean filter expression.
type Expr interface {
	exprNode()
	String() string
}

// Leaf is embedded by leaf predicates another language adds to the
// expression grammar (see LeafParser); it is what makes them an Expr.
type Leaf struct{}

func (Leaf) exprNode() {}

// CmpExpr compares a numeric field with a constant.
type CmpExpr struct {
	Field Field
	Op    CmpKind
	Value uint64
}

func (*CmpExpr) exprNode() {}
func (e *CmpExpr) String() string {
	return fmt.Sprintf("%s %s %d", e.Field, e.Op, e.Value)
}

// MatchExpr tests `net ~ prefix{lo,hi}`: the route's prefix lies inside
// Prefix and its length is within [LoLen, HiLen]. A bare prefix literal
// means {bits, 32} (any more-specific route, BIRD's subnet match).
type MatchExpr struct {
	Prefix netaddr.Prefix
	LoLen  int
	HiLen  int
}

func (*MatchExpr) exprNode() {}
func (e *MatchExpr) String() string {
	return fmt.Sprintf("net ~ %s{%d,%d}", e.Prefix, e.LoLen, e.HiLen)
}

// CommunityExpr tests membership of a community value.
type CommunityExpr struct {
	AS    uint16
	Value uint16
}

func (*CommunityExpr) exprNode() {}
func (e *CommunityExpr) String() string {
	return fmt.Sprintf("community (%d,%d)", e.AS, e.Value)
}

// BoolLit is a literal true/false.
type BoolLit bool

func (BoolLit) exprNode() {}
func (b BoolLit) String() string {
	if bool(b) {
		return "true"
	}
	return "false"
}

// NotExpr negates an expression.
type NotExpr struct{ X Expr }

func (*NotExpr) exprNode()        {}
func (e *NotExpr) String() string { return "! " + e.X.String() }

// AndExpr is conjunction.
type AndExpr struct{ X, Y Expr }

func (*AndExpr) exprNode()        {}
func (e *AndExpr) String() string { return "(" + e.X.String() + " && " + e.Y.String() + ")" }

// OrExpr is disjunction.
type OrExpr struct{ X, Y Expr }

func (*OrExpr) exprNode()        {}
func (e *OrExpr) String() string { return "(" + e.X.String() + " || " + e.Y.String() + ")" }

// Stmt is a filter statement.
type Stmt interface {
	stmtNode()
	String() string
}

// Disposition is the terminal action of a filter run.
type Disposition int

// Dispositions.
const (
	// Reject drops the route (also the default when a filter falls off
	// the end, matching BIRD).
	Reject Disposition = iota
	// Accept lets the route through with any modifications applied.
	Accept
)

func (d Disposition) String() string {
	if d == Accept {
		return "accept"
	}
	return "reject"
}

// ActionStmt is `accept;` or `reject;`.
type ActionStmt struct{ Disposition Disposition }

func (*ActionStmt) stmtNode()        {}
func (s *ActionStmt) String() string { return s.Disposition.String() + ";" }

// IfStmt is `if expr then { ... } [else { ... }]`.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (*IfStmt) stmtNode() {}
func (s *IfStmt) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "if %s then { ", s.Cond)
	for _, st := range s.Then {
		b.WriteString(st.String())
		b.WriteByte(' ')
	}
	b.WriteByte('}')
	if len(s.Else) > 0 {
		b.WriteString(" else { ")
		for _, st := range s.Else {
			b.WriteString(st.String())
			b.WriteByte(' ')
		}
		b.WriteByte('}')
	}
	return b.String()
}

// SetStmt is `set field value;` for local_pref, med and origin.
type SetStmt struct {
	Field Field
	Value uint64
}

func (*SetStmt) stmtNode()        {}
func (s *SetStmt) String() string { return fmt.Sprintf("set %s %d;", s.Field, s.Value) }

// AddCommunityStmt is `add community (as, value);`.
type AddCommunityStmt struct {
	AS    uint16
	Value uint16
}

func (*AddCommunityStmt) stmtNode() {}
func (s *AddCommunityStmt) String() string {
	return fmt.Sprintf("add community (%d,%d);", s.AS, s.Value)
}

// Filter is a named, parsed filter program.
type Filter struct {
	Name  string
	Stmts []Stmt
}

// String reconstructs approximate source for debugging.
func (f *Filter) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "filter %s { ", f.Name)
	for _, s := range f.Stmts {
		b.WriteString(s.String())
		b.WriteByte(' ')
	}
	b.WriteByte('}')
	return b.String()
}

// AcceptAll is the identity filter (used when a peer has no policy).
var AcceptAll = &Filter{Name: "accept-all", Stmts: []Stmt{&ActionStmt{Disposition: Accept}}}

// RejectAll drops everything.
var RejectAll = &Filter{Name: "reject-all", Stmts: []Stmt{&ActionStmt{Disposition: Reject}}}

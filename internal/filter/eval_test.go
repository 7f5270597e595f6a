package filter

import (
	"strings"
	"testing"

	"dice/internal/bgp"
)

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want panic containing %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want message containing %q", r, want)
		}
	}()
	fn()
}

// bogusExpr stands in for an AST node added after the evaluator was
// written — the drift case the default panic guards against.
type bogusExpr struct{}

func (bogusExpr) exprNode()      {}
func (bogusExpr) String() string { return "bogus" }

// TestUnknownFieldPanics pins the satellite bugfix: a Field value the
// evaluator does not know must fail loudly, never read as Concrete(0, 32)
// (which would make `future_field = 0` silently hold on every route).
func TestUnknownFieldPanics(t *testing.T) {
	s := subj("10.0.0.0/24", 65001)
	future := Field(len(fieldNames) + 7)
	mustPanic(t, "unhandled field", func() {
		fieldValue(future, s)
	})
	// The same drift reached through a full expression evaluation.
	mustPanic(t, "unhandled field", func() {
		evalExpr(&CmpExpr{Field: future, Op: CmpEq, Value: 0}, s, nil)
	})
}

// TestUnknownExprPanics pins the companion fix: an expression node without
// an evaluator case must not evaluate as false.
func TestUnknownExprPanics(t *testing.T) {
	s := subj("10.0.0.0/24", 65001)
	mustPanic(t, "unhandled expression node", func() {
		evalExpr(bogusExpr{}, s, nil)
	})
}

// TestUnknownCmpOpPanics covers the inner operator switch, which used to
// fall through to the same silent Bool(false).
func TestUnknownCmpOpPanics(t *testing.T) {
	s := subj("10.0.0.0/24", 65001)
	mustPanic(t, "unhandled comparison operator", func() {
		evalExpr(&CmpExpr{Field: FieldMED, Op: CmpKind(42), Value: 1}, s, nil)
	})
}

// TestApplySetterCombinations exercises every combination of the three
// attribute setters with zero values: after Apply, exactly the attributes
// that were set must report Has*, so `set origin 0` (igp) is
// distinguishable from "origin never set".
func TestApplySetterCombinations(t *testing.T) {
	zero32 := uint32(0)
	zero8 := uint8(0)
	for mask := 0; mask < 8; mask++ {
		setLP := mask&1 != 0
		setMED := mask&2 != 0
		setOrigin := mask&4 != 0
		v := Verdict{Disposition: Accept}
		if setLP {
			v.SetLocalPref = &zero32
		}
		if setMED {
			v.SetMED = &zero32
		}
		if setOrigin {
			v.SetOrigin = &zero8
		}
		var attrs bgp.Attrs
		v.Apply(&attrs)
		if attrs.HasLocalPref != setLP || attrs.LocalPref != 0 {
			t.Errorf("mask %03b: HasLocalPref=%v LocalPref=%d, want set=%v value=0",
				mask, attrs.HasLocalPref, attrs.LocalPref, setLP)
		}
		if attrs.HasMED != setMED || attrs.MED != 0 {
			t.Errorf("mask %03b: HasMED=%v MED=%d, want set=%v value=0",
				mask, attrs.HasMED, attrs.MED, setMED)
		}
		if attrs.HasOrigin != setOrigin || attrs.Origin != 0 {
			t.Errorf("mask %03b: HasOrigin=%v Origin=%d, want set=%v value=0",
				mask, attrs.HasOrigin, attrs.Origin, setOrigin)
		}
	}
}

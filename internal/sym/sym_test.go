package sym

import (
	"testing"
	"testing/quick"
)

func v32(id int, name string) *Var { return &Var{ID: id, Name: name, W: 32} }

func TestConstFolding(t *testing.T) {
	e := NewBin(OpAdd, NewConst(2, 32), NewConst(3, 32))
	c, ok := e.(*Const)
	if !ok || c.V != 5 {
		t.Fatalf("2+3 did not fold: %v", e)
	}
	e = NewCmp(OpLt, NewConst(2, 32), NewConst(3, 32))
	if e != True {
		t.Fatalf("2<3 did not fold to true: %v", e)
	}
	e = NewBool(OpLAnd, True, False)
	if e != False {
		t.Fatalf("true&&false did not fold: %v", e)
	}
}

func TestIdentities(t *testing.T) {
	x := v32(1, "x")
	if got := NewBin(OpAdd, x, NewConst(0, 32)); got != Expr(x) {
		t.Errorf("x+0 should simplify to x, got %v", got)
	}
	if got := NewBin(OpMul, x, NewConst(1, 32)); got != Expr(x) {
		t.Errorf("x*1 should simplify to x, got %v", got)
	}
	if got := NewBin(OpAnd, x, NewConst(0, 32)); got.String() != "0:32" {
		t.Errorf("x&0 should fold to 0, got %v", got)
	}
	if got := NewBin(OpAnd, x, NewConst(0xffffffff, 32)); got != Expr(x) {
		t.Errorf("x&~0 should simplify to x, got %v", got)
	}
	if got := NewBin(OpOr, NewConst(0, 32), x); got != Expr(x) {
		t.Errorf("0|x should simplify to x, got %v", got)
	}
	if got := NewBin(OpMul, NewConst(0, 32), x); got.String() != "0:32" {
		t.Errorf("0*x should fold to 0, got %v", got)
	}
}

func TestNotCanonicalization(t *testing.T) {
	x := v32(1, "x")
	cmp := NewCmp(OpEq, x, NewConst(7, 32))
	neg := NewNot(cmp)
	nc, ok := neg.(*Cmp)
	if !ok || nc.Op != OpNe {
		t.Fatalf("not(x==7) should become x!=7, got %v", neg)
	}
	if back := NewNot(neg); back.String() != cmp.String() {
		t.Fatalf("double negation should cancel: %v", back)
	}
	n := NewNot(&BoolBin{Op: OpLOr, X: cmp, Y: cmp})
	if _, ok := n.(*Not); !ok {
		t.Fatalf("negation of connective should wrap in Not, got %T", n)
	}
	if NewNot(True) != False || NewNot(False) != True {
		t.Fatal("boolean constant negation wrong")
	}
}

func TestCmpOpNegated(t *testing.T) {
	pairs := map[CmpOp]CmpOp{OpEq: OpNe, OpNe: OpEq, OpLt: OpGe, OpLe: OpGt, OpGt: OpLe, OpGe: OpLt}
	for op, want := range pairs {
		if op.Negated() != want {
			t.Errorf("%v.Negated() = %v, want %v", op, op.Negated(), want)
		}
		if op.Negated().Negated() != op {
			t.Errorf("%v double negation not identity", op)
		}
	}
}

func TestEvalArithmetic(t *testing.T) {
	x, y := v32(1, "x"), v32(2, "y")
	env := Env{1: 10, 2: 3}
	cases := []struct {
		op   BinOp
		want uint64
	}{
		{OpAdd, 13}, {OpSub, 7}, {OpMul, 30}, {OpDiv, 3}, {OpMod, 1},
		{OpAnd, 2}, {OpOr, 11}, {OpXor, 9}, {OpShl, 80}, {OpShr, 1},
	}
	for _, c := range cases {
		e := &Bin{Op: c.op, X: x, Y: y, W: 32}
		if got := Eval(e, env); got != c.want {
			t.Errorf("%v: got %d want %d", c.op, got, c.want)
		}
	}
}

func TestEvalEdgeCases(t *testing.T) {
	x := v32(1, "x")
	env := Env{1: 5}
	// Division by zero is total: yields all-ones at width.
	if got := Eval(&Bin{Op: OpDiv, X: x, Y: NewConst(0, 32), W: 32}, env); got != 0xffffffff {
		t.Errorf("x/0 = %d, want all-ones", got)
	}
	if got := Eval(&Bin{Op: OpMod, X: x, Y: NewConst(0, 32), W: 32}, env); got != 5 {
		t.Errorf("x%%0 = %d, want x", got)
	}
	// Oversized shifts yield zero.
	if got := Eval(&Bin{Op: OpShl, X: x, Y: NewConst(40, 32), W: 32}, env); got != 0 {
		t.Errorf("x<<40 = %d, want 0", got)
	}
	// Wraparound at width.
	e := &Bin{Op: OpAdd, X: NewConst(0xffffffff, 32), Y: NewConst(1, 32), W: 32}
	if got := Eval(e, nil); got != 0 {
		t.Errorf("wraparound add = %d, want 0", got)
	}
	// Unbound variable evaluates to zero.
	if got := Eval(v32(99, "unbound"), Env{}); got != 0 {
		t.Errorf("unbound var = %d, want 0", got)
	}
}

func TestEvalWidthMasking(t *testing.T) {
	v8 := &Var{ID: 1, Name: "b", W: 8}
	if got := Eval(v8, Env{1: 0x1ff}); got != 0xff {
		t.Errorf("8-bit var should mask to 0xff, got %#x", got)
	}
	c := NewConst(0x1ff, 8)
	if c.V != 0xff {
		t.Errorf("const not masked at construction: %#x", c.V)
	}
}

func TestEvalBoolFormulas(t *testing.T) {
	x := v32(1, "x")
	lt := NewCmp(OpLt, x, NewConst(10, 32))
	ge := NewCmp(OpGe, x, NewConst(5, 32))
	both := NewBool(OpLAnd, lt, ge)
	either := NewBool(OpLOr, lt, ge)
	neg := NewNot(both)

	for _, c := range []struct {
		v       uint64
		b, e, n bool
	}{
		{7, true, true, false},
		{3, false, true, true},
		{12, false, true, true},
	} {
		env := Env{1: c.v}
		if EvalBool(both, env) != c.b {
			t.Errorf("x=%d: both = %v", c.v, !c.b)
		}
		if EvalBool(either, env) != c.e {
			t.Errorf("x=%d: either = %v", c.v, !c.e)
		}
		if EvalBool(neg, env) != c.n {
			t.Errorf("x=%d: neg = %v", c.v, !c.n)
		}
	}
}

// Property: NewNot is a semantic complement for arbitrary comparisons.
func TestNegationIsComplement(t *testing.T) {
	f := func(xv, yv uint32, opRaw uint8) bool {
		op := CmpOp(opRaw % 6)
		x, y := v32(1, "x"), v32(2, "y")
		c := NewCmp(op, x, y)
		n := NewNot(c)
		env := Env{1: uint64(xv), 2: uint64(yv)}
		return EvalBool(c, env) != EvalBool(n, env)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: constant folding agrees with evaluation for every binop.
func TestFoldingMatchesEval(t *testing.T) {
	f := func(xv, yv uint32, opRaw uint8) bool {
		op := BinOp(opRaw % 10)
		folded := NewBin(op, NewConst(uint64(xv), 32), NewConst(uint64(yv), 32))
		c, ok := folded.(*Const)
		if !ok {
			return false
		}
		raw := &Bin{Op: op, X: v32(1, "x"), Y: v32(2, "y"), W: 32}
		return c.V == Eval(raw, Env{1: uint64(xv), 2: uint64(yv)})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String is stable and injective enough for hash-consing of the
// constraint store: structurally equal expressions render equally.
func TestStringStable(t *testing.T) {
	x := v32(1, "x")
	a := NewCmp(OpLt, NewBin(OpAnd, x, NewConst(0xff, 32)), NewConst(10, 32))
	b := NewCmp(OpLt, NewBin(OpAnd, v32(1, "x"), NewConst(0xff, 32)), NewConst(10, 32))
	if a.String() != b.String() {
		t.Fatalf("structural equality not reflected in String: %q vs %q", a, b)
	}
}

func TestFormatPath(t *testing.T) {
	x := v32(1, "x")
	cs := []Expr{
		NewCmp(OpGt, x, NewConst(1, 32)),
		NewCmp(OpLt, x, NewConst(5, 32)),
	}
	s := FormatPath(cs)
	if s == "" || s == FormatPath(cs[:1]) {
		t.Fatalf("FormatPath output suspicious: %q", s)
	}
}

func BenchmarkEvalDeep(b *testing.B) {
	x := v32(1, "x")
	e := Expr(x)
	for i := 0; i < 64; i++ {
		e = NewBin(OpAdd, e, NewBin(OpXor, x, NewConst(uint64(i), 32)))
	}
	env := Env{1: 12345}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Eval(e, env)
	}
}

package concolic

import (
	"fmt"

	"dice/internal/sym"
)

// Value is a concolic value: a concrete bitvector plus, when the value
// depends on a symbolic input, the expression computing it. The zero Value
// is concrete 0 with width 0 (treated as width 64 in operations).
type Value struct {
	C uint64   // concrete value, masked to W bits
	S sym.Expr // nil when the value is purely concrete
	W int      // bit width, 1..64
}

// Concrete wraps a plain value with no symbolic part.
func Concrete(v uint64, w int) Value {
	return Value{C: v & widthMask(w), W: w}
}

// Bool wraps a concrete boolean.
func Bool(b bool) Value {
	if b {
		return Value{C: 1, W: 1}
	}
	return Value{C: 0, W: 1}
}

// Brancher is the instrumentation seam: code that branches on Values
// reports every conditional through it. A RunContext records the path
// constraint; ConcreteBrancher just evaluates. Instrumented code is
// written once against Brancher and serves the live node and exploration
// alike (filter's interpreter, bgp's OPEN checks).
type Brancher interface {
	Branch(cond Value) bool
}

// ConcreteBrancher evaluates conditions with no constraint recording —
// the live node's zero-overhead path.
type ConcreteBrancher struct{}

// Branch implements Brancher.
func (ConcreteBrancher) Branch(cond Value) bool { return cond.NonZero() }

// IsSymbolic reports whether v carries a symbolic expression.
func (v Value) IsSymbolic() bool { return v.S != nil }

// NonZero reports the concrete truth of v.
func (v Value) NonZero() bool { return v.C != 0 }

// expr returns the symbolic expression for v, materializing a constant
// when v is concrete.
func (v Value) expr() sym.Expr {
	if v.S != nil {
		return v.S
	}
	return sym.NewConst(v.C, v.width())
}

func (v Value) width() int {
	if v.W <= 0 {
		return 64
	}
	return v.W
}

func widthMask(w int) uint64 {
	if w <= 0 || w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// String renders the value with its symbolic part if any.
func (v Value) String() string {
	if v.S == nil {
		return fmt.Sprintf("%d:%d", v.C, v.width())
	}
	return fmt.Sprintf("%d:%d{%s}", v.C, v.width(), v.S)
}

// binOp applies op concretely and, if either operand is symbolic, builds
// the corresponding expression. The concrete path allocates nothing.
func binOp(op sym.BinOp, a, b Value) Value {
	w := a.width()
	if b.width() > w {
		w = b.width()
	}
	c := sym.EvalBinOp(op, a.C, b.C, w)
	if a.S == nil && b.S == nil {
		return Value{C: c, W: w}
	}
	return Value{C: c, S: sym.NewBin(op, a.expr(), b.expr()), W: w}
}

// Add returns a+b (mod 2^w).
func Add(a, b Value) Value { return binOp(sym.OpAdd, a, b) }

// Sub returns a-b (mod 2^w).
func Sub(a, b Value) Value { return binOp(sym.OpSub, a, b) }

// Mul returns a*b (mod 2^w).
func Mul(a, b Value) Value { return binOp(sym.OpMul, a, b) }

// Div returns a/b (unsigned; division by zero yields all-ones).
func Div(a, b Value) Value { return binOp(sym.OpDiv, a, b) }

// Mod returns a%b (a when b is zero).
func Mod(a, b Value) Value { return binOp(sym.OpMod, a, b) }

// And returns a&b.
func And(a, b Value) Value { return binOp(sym.OpAnd, a, b) }

// Or returns a|b.
func Or(a, b Value) Value { return binOp(sym.OpOr, a, b) }

// Xor returns a^b.
func Xor(a, b Value) Value { return binOp(sym.OpXor, a, b) }

// Shl returns a<<b (0 when b >= width).
func Shl(a, b Value) Value { return binOp(sym.OpShl, a, b) }

// Shr returns a>>b (0 when b >= width).
func Shr(a, b Value) Value { return binOp(sym.OpShr, a, b) }

// cmpOp applies an unsigned comparison producing a boolean Value. The
// concrete path allocates nothing.
func cmpOp(op sym.CmpOp, a, b Value) Value {
	w := a.width()
	if b.width() > w {
		w = b.width()
	}
	c := uint64(0)
	if sym.EvalCmpOp(op, a.C, b.C, w) {
		c = 1
	}
	if a.S == nil && b.S == nil {
		return Value{C: c, W: 1}
	}
	return Value{C: c, S: sym.NewCmp(op, a.expr(), b.expr()), W: 1}
}

// Eq returns a==b as a boolean Value.
func Eq(a, b Value) Value { return cmpOp(sym.OpEq, a, b) }

// Ne returns a!=b as a boolean Value.
func Ne(a, b Value) Value { return cmpOp(sym.OpNe, a, b) }

// Lt returns a<b (unsigned) as a boolean Value.
func Lt(a, b Value) Value { return cmpOp(sym.OpLt, a, b) }

// Le returns a<=b (unsigned) as a boolean Value.
func Le(a, b Value) Value { return cmpOp(sym.OpLe, a, b) }

// Gt returns a>b (unsigned) as a boolean Value.
func Gt(a, b Value) Value { return cmpOp(sym.OpGt, a, b) }

// Ge returns a>=b (unsigned) as a boolean Value.
func Ge(a, b Value) Value { return cmpOp(sym.OpGe, a, b) }

// BoolAnd returns the logical conjunction of two boolean Values.
func BoolAnd(a, b Value) Value {
	c := uint64(0)
	if a.C != 0 && b.C != 0 {
		c = 1
	}
	if a.S == nil && b.S == nil {
		return Value{C: c, W: 1}
	}
	return Value{C: c, S: sym.NewBool(sym.OpLAnd, boolExpr(a), boolExpr(b)), W: 1}
}

// BoolOr returns the logical disjunction of two boolean Values.
func BoolOr(a, b Value) Value {
	c := uint64(0)
	if a.C != 0 || b.C != 0 {
		c = 1
	}
	if a.S == nil && b.S == nil {
		return Value{C: c, W: 1}
	}
	return Value{C: c, S: sym.NewBool(sym.OpLOr, boolExpr(a), boolExpr(b)), W: 1}
}

// BoolNot returns the logical negation of a boolean Value.
func BoolNot(a Value) Value {
	c := uint64(0)
	if a.C == 0 {
		c = 1
	}
	if a.S == nil {
		return Value{C: c, W: 1}
	}
	return Value{C: c, S: sym.NewNot(boolExpr(a)), W: 1}
}

// boolExpr converts a Value's symbolic part to a boolean formula,
// inserting an explicit !=0 test for bitvector expressions.
func boolExpr(v Value) sym.Expr {
	e := v.expr()
	if e.IsBool() {
		return e
	}
	return sym.NewCmp(sym.OpNe, e, sym.NewConst(0, e.Width()))
}

// Truncate narrows v to w bits (both concrete and symbolic parts).
func Truncate(v Value, w int) Value {
	if w >= v.width() {
		return v
	}
	m := widthMask(w)
	if v.S == nil {
		return Value{C: v.C & m, W: w}
	}
	return Value{C: v.C & m, S: sym.NewBin(sym.OpAnd, v.S, sym.NewConst(m, v.width())), W: w}
}

// Extend widens v to w bits (zero extension; the symbolic part is
// unchanged because values are unsigned).
func Extend(v Value, w int) Value {
	if w <= v.width() {
		return v
	}
	return Value{C: v.C, S: v.S, W: w}
}

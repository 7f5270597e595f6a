// Package sym defines the symbolic expression IR used by the concolic
// engine (the Oasis replacement). Expressions are fixed-width unsigned
// bitvector terms (width 1..64) plus boolean formulas over comparisons.
//
// The IR is immutable and hash-consed: constructors return canonical,
// lightly simplified, interned expressions carrying a precomputed 64-bit
// structural hash, so structural equality (Equal) is pointer/hash
// equality in the common case and dedup keys are Fingerprints rather
// than rendered strings (see intern.go).
package sym

import (
	"fmt"
	"strings"
)

// Expr is a symbolic expression. Bitvector expressions have Width in
// 1..64; boolean expressions report Width 1 and IsBool true.
type Expr interface {
	// Width is the bit width of the expression's value.
	Width() int
	// IsBool reports whether the expression is a boolean formula
	// (comparison or connective) rather than a bitvector term.
	IsBool() bool
	// Hash is the node's 64-bit structural hash (never 0 for a valid
	// node): two structurally equal expressions always hash equal.
	// Constructors precompute it; struct-literal nodes compute on call.
	Hash() uint64
	// String renders the expression for logs and debugging. Structurally
	// identical expressions render identically, but rendering is O(size)
	// and allocates — keys on hot paths use Hash/Fingerprint instead.
	String() string
}

// maskFor returns the value mask for a width.
func maskFor(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// Var is a free symbolic variable (an engine-controlled input).
type Var struct {
	ID   int    // unique per engine run
	Name string // human-readable, e.g. "nlri0.prefix"
	W    int
	h    uint64 // structural hash; 0 for struct-literal nodes
}

// NewVar returns the interned variable node for (id, name, w).
func NewVar(id int, name string, w int) *Var {
	return internVar(id, name, w)
}

func (v *Var) Width() int   { return v.W }
func (v *Var) IsBool() bool { return false }
func (v *Var) Hash() uint64 {
	if v.h != 0 {
		return v.h
	}
	return hashVar(v.ID, v.Name, v.W)
}
func (v *Var) String() string {
	return fmt.Sprintf("%s#%d:%d", v.Name, v.ID, v.W)
}

// Const is a constant bitvector value.
type Const struct {
	V uint64
	W int
	h uint64 // structural hash; 0 for struct-literal nodes
}

// NewConst returns the interned constant of the given width, masking the
// value.
func NewConst(v uint64, w int) *Const {
	return internConst(v&maskFor(w), w)
}

func (c *Const) Width() int   { return c.W }
func (c *Const) IsBool() bool { return false }
func (c *Const) Hash() uint64 {
	if c.h != 0 {
		return c.h
	}
	return hashConst(c.V, c.W)
}
func (c *Const) String() string { return fmt.Sprintf("%d:%d", c.V, c.W) }

// BoolConst is a constant truth value.
type BoolConst bool

// True and False are the boolean constants.
var (
	True  = BoolConst(true)
	False = BoolConst(false)
)

func (b BoolConst) Width() int   { return 1 }
func (b BoolConst) IsBool() bool { return true }
func (b BoolConst) Hash() uint64 {
	if bool(b) {
		return nz(mix64(tagBoolTrue))
	}
	return nz(mix64(tagBoolFalse))
}
func (b BoolConst) String() string {
	if bool(b) {
		return "true"
	}
	return "false"
}

// BinOp is a bitvector binary operator.
type BinOp int

// Bitvector operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv // unsigned; x/0 defined as all-ones (hardware-ish, keeps eval total)
	OpMod // x%0 defined as x
	OpAnd
	OpOr
	OpXor
	OpShl // shift amounts >= width yield 0
	OpShr
)

var binOpNames = [...]string{"add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr"}

func (op BinOp) String() string {
	if int(op) < len(binOpNames) {
		return binOpNames[op]
	}
	return fmt.Sprintf("binop(%d)", int(op))
}

// Bin is a binary bitvector operation. Both operands share the result
// width (operands are implicitly zero-extended/truncated by constructors).
type Bin struct {
	Op   BinOp
	X, Y Expr
	W    int
	h    uint64 // structural hash; 0 for struct-literal nodes
}

func (b *Bin) Width() int   { return b.W }
func (b *Bin) IsBool() bool { return false }
func (b *Bin) Hash() uint64 {
	if b.h != 0 {
		return b.h
	}
	return hashBin(b.Op, b.X, b.Y, b.W)
}
func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Op, b.X, b.Y)
}

// CmpOp is an unsigned comparison operator.
type CmpOp int

// Comparison operators (unsigned).
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var cmpOpNames = [...]string{"==", "!=", "<", "<=", ">", ">="}

func (op CmpOp) String() string {
	if int(op) < len(cmpOpNames) {
		return cmpOpNames[op]
	}
	return fmt.Sprintf("cmpop(%d)", int(op))
}

// Negated returns the complementary comparison (Eq<->Ne, Lt<->Ge, ...).
func (op CmpOp) Negated() CmpOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return op
}

// Cmp is an unsigned comparison producing a boolean.
type Cmp struct {
	Op   CmpOp
	X, Y Expr
	h    uint64 // structural hash; 0 for struct-literal nodes
}

func (c *Cmp) Width() int   { return 1 }
func (c *Cmp) IsBool() bool { return true }
func (c *Cmp) Hash() uint64 {
	if c.h != 0 {
		return c.h
	}
	return hashCmp(c.Op, c.X, c.Y)
}
func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.X, c.Op, c.Y)
}

// BoolOp is a boolean connective.
type BoolOp int

// Boolean connectives.
const (
	OpLAnd BoolOp = iota
	OpLOr
)

func (op BoolOp) String() string {
	if op == OpLAnd {
		return "&&"
	}
	return "||"
}

// BoolBin is a boolean connective over two boolean formulas.
type BoolBin struct {
	Op   BoolOp
	X, Y Expr
	h    uint64 // structural hash; 0 for struct-literal nodes
}

func (b *BoolBin) Width() int   { return 1 }
func (b *BoolBin) IsBool() bool { return true }
func (b *BoolBin) Hash() uint64 {
	if b.h != 0 {
		return b.h
	}
	return hashBoolBin(b.Op, b.X, b.Y)
}
func (b *BoolBin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.X, b.Op, b.Y)
}

// Not is boolean negation.
type Not struct {
	X Expr
	h uint64 // structural hash; 0 for struct-literal nodes
}

func (n *Not) Width() int   { return 1 }
func (n *Not) IsBool() bool { return true }
func (n *Not) Hash() uint64 {
	if n.h != 0 {
		return n.h
	}
	return hashNot(n.X)
}
func (n *Not) String() string { return fmt.Sprintf("(not %s)", n.X) }

// --- Constructors with light canonicalization ------------------------------

// widen returns e adjusted to width w. Constants are re-masked; other
// expressions are assumed to already carry values that fit (the concolic
// layer only mixes widths through explicit Extend/Truncate).
func widen(e Expr, w int) Expr {
	if c, ok := e.(*Const); ok && c.W != w {
		return NewConst(c.V, w)
	}
	return e
}

// NewBin builds a binary bitvector expression, constant-folding when both
// operands are constants and applying identity simplifications.
func NewBin(op BinOp, x, y Expr) Expr {
	w := x.Width()
	if y.Width() > w {
		w = y.Width()
	}
	x, y = widen(x, w), widen(y, w)

	cx, xConst := x.(*Const)
	cy, yConst := y.(*Const)
	if xConst && yConst {
		return NewConst(evalBin(op, cx.V, cy.V, w), w)
	}
	// Identities keep the constraint store small and stable.
	if yConst {
		switch {
		case cy.V == 0 && (op == OpAdd || op == OpSub || op == OpOr || op == OpXor || op == OpShl || op == OpShr):
			return x
		case cy.V == 0 && op == OpAnd:
			return NewConst(0, w)
		case cy.V == 0 && op == OpMul:
			return NewConst(0, w)
		case cy.V == 1 && (op == OpMul || op == OpDiv):
			return x
		case cy.V == maskFor(w) && op == OpAnd:
			return x
		case cy.V == maskFor(w) && op == OpOr:
			return NewConst(maskFor(w), w)
		}
	}
	if xConst {
		switch {
		case cx.V == 0 && (op == OpAdd || op == OpOr || op == OpXor):
			return y
		case cx.V == 0 && (op == OpAnd || op == OpMul):
			return NewConst(0, w)
		case cx.V == 1 && op == OpMul:
			return y
		case cx.V == maskFor(w) && op == OpAnd:
			return y
		}
	}
	return internBin(op, x, y, w)
}

// NewCmp builds a comparison, constant-folding when possible.
func NewCmp(op CmpOp, x, y Expr) Expr {
	w := x.Width()
	if y.Width() > w {
		w = y.Width()
	}
	x, y = widen(x, w), widen(y, w)
	if cx, ok := x.(*Const); ok {
		if cy, ok2 := y.(*Const); ok2 {
			return BoolConst(evalCmp(op, cx.V, cy.V))
		}
	}
	return internCmp(op, x, y)
}

// NewBool builds a boolean connective with short-circuit folding.
func NewBool(op BoolOp, x, y Expr) Expr {
	if bx, ok := x.(BoolConst); ok {
		if op == OpLAnd {
			if bool(bx) {
				return y
			}
			return False
		}
		if bool(bx) {
			return True
		}
		return y
	}
	if by, ok := y.(BoolConst); ok {
		if op == OpLAnd {
			if bool(by) {
				return x
			}
			return False
		}
		if bool(by) {
			return True
		}
		return x
	}
	return internBoolBin(op, x, y)
}

// NewNot negates a boolean formula; comparisons flip their operator and
// double negation cancels, so constraints stay in a small canonical form.
func NewNot(x Expr) Expr {
	switch e := x.(type) {
	case BoolConst:
		return BoolConst(!bool(e))
	case *Not:
		return e.X
	case *Cmp:
		return internCmp(e.Op.Negated(), e.X, e.Y)
	}
	return internNot(x)
}

// --- Evaluation -------------------------------------------------------------

// Env maps variable IDs to concrete values.
type Env map[int]uint64

// evalBin computes a binary op on concrete values at width w.
func evalBin(op BinOp, x, y uint64, w int) uint64 {
	m := maskFor(w)
	x, y = x&m, y&m
	switch op {
	case OpAdd:
		return (x + y) & m
	case OpSub:
		return (x - y) & m
	case OpMul:
		return (x * y) & m
	case OpDiv:
		if y == 0 {
			return m // total definition: div-by-zero yields all-ones
		}
		return (x / y) & m
	case OpMod:
		if y == 0 {
			return x
		}
		return (x % y) & m
	case OpAnd:
		return x & y
	case OpOr:
		return x | y
	case OpXor:
		return x ^ y
	case OpShl:
		if y >= uint64(w) {
			return 0
		}
		return (x << y) & m
	case OpShr:
		if y >= uint64(w) {
			return 0
		}
		return (x >> y) & m
	}
	panic(fmt.Sprintf("sym: unknown binop %d", op))
}

// evalCmp computes an unsigned comparison on concrete values.
func evalCmp(op CmpOp, x, y uint64) bool {
	switch op {
	case OpEq:
		return x == y
	case OpNe:
		return x != y
	case OpLt:
		return x < y
	case OpLe:
		return x <= y
	case OpGt:
		return x > y
	case OpGe:
		return x >= y
	}
	panic(fmt.Sprintf("sym: unknown cmpop %d", op))
}

// Eval computes the concrete value of a bitvector expression under env.
// Unbound variables evaluate to 0. Boolean formulas return 0 or 1.
func Eval(e Expr, env Env) uint64 {
	switch t := e.(type) {
	case *Var:
		return env[t.ID] & maskFor(t.W)
	case *Const:
		return t.V
	case BoolConst:
		if bool(t) {
			return 1
		}
		return 0
	case *Bin:
		return evalBin(t.Op, Eval(t.X, env), Eval(t.Y, env), t.W)
	case *Cmp:
		if evalCmp(t.Op, Eval(t.X, env), Eval(t.Y, env)) {
			return 1
		}
		return 0
	case *BoolBin:
		x := Eval(t.X, env) != 0
		y := Eval(t.Y, env) != 0
		if t.Op == OpLAnd {
			if x && y {
				return 1
			}
			return 0
		}
		if x || y {
			return 1
		}
		return 0
	case *Not:
		if Eval(t.X, env) != 0 {
			return 0
		}
		return 1
	}
	panic(fmt.Sprintf("sym: unknown expr %T", e))
}

// EvalBool evaluates a boolean formula under env.
func EvalBool(e Expr, env Env) bool { return Eval(e, env) != 0 }

// EvalBinOp computes a binary op on concrete values at width w — the
// concolic layer's concrete fast path, with no expression construction.
func EvalBinOp(op BinOp, x, y uint64, w int) uint64 { return evalBin(op, x, y, w) }

// EvalCmpOp computes an unsigned comparison on concrete values masked to
// width w.
func EvalCmpOp(op CmpOp, x, y uint64, w int) bool {
	m := maskFor(w)
	return evalCmp(op, x&m, y&m)
}

// FormatPath renders a path-constraint list compactly. Rendering is
// O(total size) and allocates: it is for logs and debug output only —
// dedup and memo keys use FingerprintPath.
func FormatPath(cs []Expr) string {
	var b strings.Builder
	for i, c := range cs {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(c.String())
	}
	return b.String()
}

package solver

import (
	"testing"
	"testing/quick"

	"dice/internal/sym"
)

func v32(id int, name string) *sym.Var { return &sym.Var{ID: id, Name: name, W: 32} }
func v8(id int, name string) *sym.Var  { return &sym.Var{ID: id, Name: name, W: 8} }
func c32(v uint64) sym.Expr            { return sym.NewConst(v, 32) }

func solve(t *testing.T, cs ...sym.Expr) (sym.Env, Result) {
	t.Helper()
	return New(Options{}).Solve(cs)
}

func requireSat(t *testing.T, cs ...sym.Expr) sym.Env {
	t.Helper()
	env, res := solve(t, cs...)
	if res != Sat {
		t.Fatalf("expected sat, got %v for %s", res, sym.FormatPath(cs))
	}
	for _, c := range cs {
		if !sym.EvalBool(c, env) {
			t.Fatalf("model %v does not satisfy %v", env, c)
		}
	}
	return env
}

func requireUnsat(t *testing.T, cs ...sym.Expr) {
	t.Helper()
	_, res := solve(t, cs...)
	if res != Unsat {
		t.Fatalf("expected unsat, got %v for %s", res, sym.FormatPath(cs))
	}
}

func TestSimpleEquality(t *testing.T) {
	x := v32(1, "x")
	env := requireSat(t, sym.NewCmp(sym.OpEq, x, c32(42)))
	if env[1] != 42 {
		t.Fatalf("x = %d, want 42", env[1])
	}
}

func TestRangeConjunction(t *testing.T) {
	x := v32(1, "x")
	env := requireSat(t,
		sym.NewCmp(sym.OpGt, x, c32(10)),
		sym.NewCmp(sym.OpLt, x, c32(13)),
	)
	if env[1] != 11 && env[1] != 12 {
		t.Fatalf("x = %d, want 11 or 12", env[1])
	}
}

func TestUnsatRange(t *testing.T) {
	x := v32(1, "x")
	requireUnsat(t,
		sym.NewCmp(sym.OpLt, x, c32(5)),
		sym.NewCmp(sym.OpGt, x, c32(10)),
	)
}

func TestUnsatContradiction(t *testing.T) {
	x := v32(1, "x")
	requireUnsat(t,
		sym.NewCmp(sym.OpEq, x, c32(1)),
		sym.NewCmp(sym.OpEq, x, c32(2)),
	)
}

func TestArithmeticInversion(t *testing.T) {
	x := v32(1, "x")
	// x + 100 == 142  =>  x == 42
	env := requireSat(t, sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAdd, x, c32(100)), c32(142)))
	if env[1] != 42 {
		t.Fatalf("x = %d, want 42", env[1])
	}
	// x - 7 == 3  =>  x == 10
	env = requireSat(t, sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpSub, x, c32(7)), c32(3)))
	if env[1] != 10 {
		t.Fatalf("x = %d, want 10", env[1])
	}
}

func TestShiftInversion(t *testing.T) {
	x := v32(1, "x")
	// x >> 8 == 0xCB  => x in [0xCB00, 0xCBFF]
	env := requireSat(t, sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpShr, x, c32(8)), c32(0xCB)))
	if env[1]>>8 != 0xCB {
		t.Fatalf("x = %#x, want high byte 0xCB", env[1])
	}
}

func TestMaskConstraint(t *testing.T) {
	x := v32(1, "x")
	// (x & 0xff) == 0x42 — typical low-byte field extraction.
	env := requireSat(t, sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, x, c32(0xff)), c32(0x42)))
	if env[1]&0xff != 0x42 {
		t.Fatalf("x = %#x, want low byte 0x42", env[1])
	}
}

func TestTwoVariables(t *testing.T) {
	x, y := v32(1, "x"), v32(2, "y")
	env := requireSat(t,
		sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAdd, x, y), c32(10)),
		sym.NewCmp(sym.OpEq, x, c32(3)),
	)
	if env[1] != 3 || env[2] != 7 {
		t.Fatalf("got x=%d y=%d, want 3,7", env[1], env[2])
	}
}

func TestNarrowWidthExhaustive(t *testing.T) {
	b := v8(1, "masklen")
	// Typical prefix-length predicate: 24 < len <= 32 and len != 25..31
	cs := []sym.Expr{
		sym.NewCmp(sym.OpGt, b, sym.NewConst(24, 8)),
		sym.NewCmp(sym.OpLe, b, sym.NewConst(32, 8)),
		sym.NewCmp(sym.OpNe, b, sym.NewConst(25, 8)),
		sym.NewCmp(sym.OpNe, b, sym.NewConst(26, 8)),
		sym.NewCmp(sym.OpNe, b, sym.NewConst(27, 8)),
		sym.NewCmp(sym.OpNe, b, sym.NewConst(28, 8)),
		sym.NewCmp(sym.OpNe, b, sym.NewConst(29, 8)),
		sym.NewCmp(sym.OpNe, b, sym.NewConst(30, 8)),
		sym.NewCmp(sym.OpNe, b, sym.NewConst(31, 8)),
	}
	env := requireSat(t, cs...)
	if env[1] != 32 {
		t.Fatalf("masklen = %d, want 32", env[1])
	}
}

func TestNarrowWidthUnsat(t *testing.T) {
	b := v8(1, "flag")
	requireUnsat(t,
		sym.NewCmp(sym.OpLt, b, sym.NewConst(2, 8)),
		sym.NewCmp(sym.OpNe, b, sym.NewConst(0, 8)),
		sym.NewCmp(sym.OpNe, b, sym.NewConst(1, 8)),
	)
}

func TestDisjunction(t *testing.T) {
	x := v32(1, "x")
	or := sym.NewBool(sym.OpLOr,
		sym.NewCmp(sym.OpEq, x, c32(5)),
		sym.NewCmp(sym.OpEq, x, c32(9)))
	env := requireSat(t, or)
	if env[1] != 5 && env[1] != 9 {
		t.Fatalf("x = %d, want 5 or 9", env[1])
	}
	// Force the second disjunct.
	env = requireSat(t, or, sym.NewCmp(sym.OpNe, x, c32(5)))
	if env[1] != 9 {
		t.Fatalf("x = %d, want 9", env[1])
	}
}

func TestNegatedDisjunction(t *testing.T) {
	x := v32(1, "x")
	or := sym.NewBool(sym.OpLOr,
		sym.NewCmp(sym.OpLt, x, c32(5)),
		sym.NewCmp(sym.OpGt, x, c32(9)))
	env := requireSat(t, sym.NewNot(or))
	if env[1] < 5 || env[1] > 9 {
		t.Fatalf("x = %d, want in [5,9]", env[1])
	}
}

func TestHintPreferred(t *testing.T) {
	x := v32(1, "x")
	env, res := New(Options{}).SolveHinted([]sym.Expr{sym.NewCmp(sym.OpGt, x, c32(10))}, sym.Env{1: 77})
	if res != Sat {
		t.Fatalf("expected sat, got %v", res)
	}
	if env[1] != 77 {
		t.Fatalf("hint not honored: x = %d", env[1])
	}
}

func TestHintInfeasibleStillSolves(t *testing.T) {
	x := v32(1, "x")
	env, res := New(Options{}).SolveHinted([]sym.Expr{sym.NewCmp(sym.OpGt, x, c32(10))}, sym.Env{1: 3})
	if res != Sat || env[1] <= 10 {
		t.Fatalf("got %v env=%v", res, env)
	}
}

func TestEmptyConstraints(t *testing.T) {
	env, res := solve(t)
	if res != Sat || len(env) != 0 {
		t.Fatalf("empty constraint set should be trivially sat, got %v %v", res, env)
	}
}

func TestConstantConstraints(t *testing.T) {
	if _, res := solve(t, sym.True); res != Sat {
		t.Fatal("true should be sat")
	}
	if _, res := solve(t, sym.False); res != Unsat {
		t.Fatal("false should be unsat")
	}
}

func TestPrefixContainmentConstraint(t *testing.T) {
	// The exact shape the BGP import filter produces:
	//   (addr & mask(16)) == 0x0A010000  — prefix inside 10.1.0.0/16
	addr := v32(1, "nlri.addr")
	env := requireSat(t, sym.NewCmp(sym.OpEq,
		sym.NewBin(sym.OpAnd, addr, c32(0xffff0000)),
		c32(0x0A010000)))
	if env[1]&0xffff0000 != 0x0A010000 {
		t.Fatalf("addr %#x not in 10.1.0.0/16", env[1])
	}
}

func TestPrefixNotInRange(t *testing.T) {
	// Negated containment: (addr & mask) != net — must find an address
	// outside the prefix.
	addr := v32(1, "nlri.addr")
	env := requireSat(t, sym.NewCmp(sym.OpNe,
		sym.NewBin(sym.OpAnd, addr, c32(0xffff0000)),
		c32(0x0A010000)))
	if env[1]&0xffff0000 == 0x0A010000 {
		t.Fatalf("addr %#x should be outside 10.1.0.0/16", env[1])
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New(Options{})
	x := v32(1, "x")
	s.Solve([]sym.Expr{sym.NewCmp(sym.OpEq, x, c32(1))})
	s.Solve([]sym.Expr{sym.False})
	if s.Calls != 2 || s.SatCount != 1 || s.UnsatCount != 1 {
		t.Fatalf("stats wrong: %+v", s)
	}
}

// Property: for random interval constraints on one variable, the solver's
// sat/unsat answer matches brute force over a sampled domain.
func TestSolverSoundOnIntervals(t *testing.T) {
	f := func(loRaw, hiRaw uint8) bool {
		lo, hi := uint64(loRaw), uint64(hiRaw)
		x := v8(1, "x")
		cs := []sym.Expr{
			sym.NewCmp(sym.OpGe, x, sym.NewConst(lo, 8)),
			sym.NewCmp(sym.OpLe, x, sym.NewConst(hi, 8)),
		}
		env, res := New(Options{}).Solve(cs)
		if lo <= hi {
			return res == Sat && env[1] >= lo && env[1] <= hi
		}
		return res == Unsat
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every Sat model actually satisfies the constraints (checked by
// direct evaluation) for random three-constraint systems.
func TestModelsAreValid(t *testing.T) {
	f := func(a, b, c uint16, ops [3]uint8) bool {
		x := v32(1, "x")
		vals := [3]uint64{uint64(a), uint64(b), uint64(c)}
		cs := make([]sym.Expr, 3)
		for i := range cs {
			cs[i] = sym.NewCmp(sym.CmpOp(ops[i]%6), x, c32(vals[i]))
		}
		env, res := New(Options{}).Solve(cs)
		if res != Sat {
			return true // unsat/unknown: nothing to validate
		}
		for _, cst := range cs {
			if !sym.EvalBool(cst, env) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Unsat answers on single-variable 8-bit systems are exact
// (verified by brute-force enumeration of all 256 values).
func TestUnsatIsExactForBytes(t *testing.T) {
	f := func(a, b, c uint8, ops [3]uint8) bool {
		x := v8(1, "x")
		vals := [3]uint64{uint64(a), uint64(b), uint64(c)}
		cs := make([]sym.Expr, 3)
		for i := range cs {
			cs[i] = sym.NewCmp(sym.CmpOp(ops[i]%6), x, sym.NewConst(vals[i], 8))
		}
		_, res := New(Options{}).Solve(cs)
		bruteSat := false
		for v := uint64(0); v < 256; v++ {
			ok := true
			for _, cst := range cs {
				if !sym.EvalBool(cst, sym.Env{1: v}) {
					ok = false
					break
				}
			}
			if ok {
				bruteSat = true
				break
			}
		}
		if bruteSat {
			return res == Sat
		}
		return res == Unsat
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolveEquality(b *testing.B) {
	x := v32(1, "x")
	cs := []sym.Expr{sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAdd, x, c32(100)), c32(142))}
	for i := 0; i < b.N; i++ {
		if _, res := New(Options{}).Solve(cs); res != Sat {
			b.Fatal("unsat")
		}
	}
}

func BenchmarkSolvePrefixPredicate(b *testing.B) {
	addr := v32(1, "addr")
	ln := v8(2, "len")
	cs := []sym.Expr{
		sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, addr, c32(0xffff0000)), c32(0x0A010000)),
		sym.NewCmp(sym.OpGe, ln, sym.NewConst(16, 8)),
		sym.NewCmp(sym.OpLe, ln, sym.NewConst(24, 8)),
	}
	for i := 0; i < b.N; i++ {
		if _, res := New(Options{}).Solve(cs); res != Sat {
			b.Fatal("unsat")
		}
	}
}

func TestKnownBitsSingleBit(t *testing.T) {
	x := v32(1, "x")
	// ((x >> 5) & 1) == 1 ∧ ((x >> 2) & 1) == 0 ∧ x < 64
	env := requireSat(t,
		sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, sym.NewBin(sym.OpShr, x, c32(5)), c32(1)), c32(1)),
		sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, sym.NewBin(sym.OpShr, x, c32(2)), c32(1)), c32(0)),
		sym.NewCmp(sym.OpLt, x, c32(64)),
	)
	if env[1]>>5&1 != 1 || env[1]>>2&1 != 0 {
		t.Fatalf("bits wrong: %#b", env[1])
	}
}

func TestKnownBitsConflict(t *testing.T) {
	x := v32(1, "x")
	requireUnsat(t,
		sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, x, c32(0x10)), c32(0x10)),
		sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, x, c32(0x10)), c32(0)),
	)
}

func TestKnownBitsFieldOutsideMask(t *testing.T) {
	x := v32(1, "x")
	// (x & 0xf) == 0x1f is impossible: the field cannot exceed its mask.
	requireUnsat(t, sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, x, c32(0xf)), c32(0x1f)))
}

func TestKnownBitsManyBits(t *testing.T) {
	x := v32(1, "x")
	// Pin 8 separate bits — the pattern from bit-branchy handlers.
	var cs []sym.Expr
	want := uint64(0xA5)
	for i := 0; i < 8; i++ {
		b := (want >> uint(i)) & 1
		cs = append(cs, sym.NewCmp(sym.OpEq,
			sym.NewBin(sym.OpAnd, sym.NewBin(sym.OpShr, x, c32(uint64(i))), c32(1)),
			c32(b)))
	}
	cs = append(cs, sym.NewCmp(sym.OpLt, x, c32(256)))
	env := requireSat(t, cs...)
	if env[1] != want {
		t.Fatalf("x = %#x, want %#x", env[1], want)
	}
}

func TestKnownBitsSingleBitNe(t *testing.T) {
	x := v32(1, "x")
	// ((x>>3)&1) != 0 is == 1 for a single-bit field.
	env := requireSat(t,
		sym.NewCmp(sym.OpNe, sym.NewBin(sym.OpAnd, sym.NewBin(sym.OpShr, x, c32(3)), c32(1)), c32(0)))
	if env[1]>>3&1 != 1 {
		t.Fatalf("bit 3 not set: %#x", env[1])
	}
}

// TestIntervalSizeSaturates is the regression test for the Hi-Lo+1
// overflow: the full 64-bit domain must not report size 0 (which made the
// widest variable look like the most constrained one and qualified a
// 2^64-value domain for exhaustive enumeration).
func TestIntervalSizeSaturates(t *testing.T) {
	cases := []struct {
		iv   Interval
		want uint64
	}{
		{Interval{0, ^uint64(0)}, ^uint64(0)}, // full domain: saturates
		{Interval{1, ^uint64(0)}, ^uint64(0)}, // 2^64-1 values: exact
		{Interval{0, 0}, 1},
		{Interval{5, 10}, 6},
	}
	for _, c := range cases {
		if got := c.iv.size(); got != c.want {
			t.Errorf("size(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

// TestSolve64BitVariable: a full-width variable must not derail variable
// selection; the solver still finds models over mixed-width constraints.
func TestSolve64BitVariable(t *testing.T) {
	x := &sym.Var{ID: 0, Name: "x", W: 64}
	y := v8(1, "y")
	env := requireSat(t,
		sym.NewCmp(sym.OpNe, x, sym.NewConst(5, 64)),
		sym.NewCmp(sym.OpEq, y, sym.NewConst(7, 8)))
	if env[0] == 5 || env[1] != 7 {
		t.Fatalf("bad model %v", env)
	}
}

// TestSolveHintedReusable: one Solver serves many queries with different
// hints (the per-worker reuse pattern) and honors each hint.
func TestSolveHintedReusable(t *testing.T) {
	x := v32(0, "x")
	s := New(Options{})
	cs := []sym.Expr{sym.NewCmp(sym.OpGt, x, c32(10))}
	for _, want := range []uint64{11, 500, 77} {
		env, res := s.SolveHinted(cs, sym.Env{0: want})
		if res != Sat || env[0] != want {
			t.Fatalf("hint %d ignored: env=%v res=%v", want, env, res)
		}
	}
	if s.Calls != 3 {
		t.Fatalf("calls = %d, want 3", s.Calls)
	}
}

package solver

import (
	"testing"

	"dice/internal/sym"
)

// maskedBit builds ((x >> k) & 1) — the router-shaped masked-field term.
func maskedBit(x sym.Expr, k uint64) sym.Expr {
	return sym.NewBin(sym.OpAnd, sym.NewBin(sym.OpShr, x, sym.NewConst(k, 64)), sym.NewConst(1, 64))
}

// TestAnalyzeFull64BitWidth: propagation over the full 64-bit domain must
// not wrap or truncate — the known-bits mask and interval must cover all
// 64 bits.
func TestAnalyzeFull64BitWidth(t *testing.T) {
	x := sym.NewVar(0, "x", 64)
	hi := uint64(1) << 63
	info, ok := Analyze([]sym.Expr{
		sym.NewCmp(sym.OpGe, x, sym.NewConst(hi, 64)),
		sym.NewCmp(sym.OpEq, maskedBit(x, 0), sym.NewConst(1, 64)),
	})
	if !ok {
		t.Fatal("feasible constraints reported contradictory")
	}
	v := info[0]
	if v.Width != 64 || v.Lo < hi || v.Hi != ^uint64(0) {
		t.Fatalf("VarInfo = %+v, want Lo >= 2^63, Hi = MaxUint64", v)
	}
	if v.One&1 != 1 {
		t.Fatalf("bit 0 not proven 1: One = %#x", v.One)
	}
	// Top-bit field: ((x >> 63) & 1) == 1 must prove the MSB.
	info, ok = Analyze([]sym.Expr{
		sym.NewCmp(sym.OpEq, maskedBit(x, 63), sym.NewConst(1, 64)),
	})
	if !ok {
		t.Fatal("MSB constraint reported contradictory")
	}
	if info[0].One != hi {
		t.Fatalf("MSB not proven: One = %#x, want %#x", info[0].One, hi)
	}
}

// TestPropagateBitsSingleBitNeFlip: a != on a single-bit field is the ==
// of the flipped bit, and must land in the known-bits domain.
func TestPropagateBitsSingleBitNeFlip(t *testing.T) {
	x := sym.NewVar(0, "x", 64)
	info, ok := Analyze([]sym.Expr{
		sym.NewCmp(sym.OpNe, maskedBit(x, 5), sym.NewConst(0, 64)),
	})
	if !ok {
		t.Fatal("single-bit != reported contradictory")
	}
	if info[0].One&(1<<5) == 0 {
		t.Fatalf("bit 5 not proven 1 from != 0: One = %#x", info[0].One)
	}
	info, ok = Analyze([]sym.Expr{
		sym.NewCmp(sym.OpNe, maskedBit(x, 5), sym.NewConst(1, 64)),
	})
	if !ok {
		t.Fatal("single-bit != 1 reported contradictory")
	}
	if info[0].Zero&(1<<5) == 0 {
		t.Fatalf("bit 5 not proven 0 from != 1: Zero = %#x", info[0].Zero)
	}
}

// TestPropagateBitsMaskOutsideField: a field compared against a value
// outside its mask can never hold — definite contradiction.
func TestPropagateBitsMaskOutsideField(t *testing.T) {
	x := sym.NewVar(0, "x", 32)
	_, ok := Analyze([]sym.Expr{
		sym.NewCmp(sym.OpEq,
			sym.NewBin(sym.OpAnd, x, sym.NewConst(0xF, 32)),
			sym.NewConst(0x10, 32)),
	})
	if ok {
		t.Fatal("(x & 0xF) == 0x10 not detected as contradictory")
	}
}

// TestBitsContradictionAcrossConstraints: two masked-field equalities
// that pin the same bit both ways are unsat even though each constraint's
// interval is satisfiable.
func TestBitsContradictionAcrossConstraints(t *testing.T) {
	x := v32(0, "x")
	requireUnsat(t,
		sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, x, c32(1)), c32(1)),
		sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, x, c32(3)), c32(2)),
	)
}

// TestCollectSideConstsMasksWidth: candidate constants derived by
// inverting an op must be masked to the variable's width — (x + 250) ==
// 10 at width 8 has the in-domain witness x == 16, which the unmasked
// derivation 10-250 (wrapping far past 2^8) used to miss as a candidate.
func TestCollectSideConstsMasksWidth(t *testing.T) {
	x := v8(0, "x")
	env := requireSat(t,
		sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAdd, x, sym.NewConst(250, 8)), sym.NewConst(10, 8)),
	)
	if env[0] != 16 {
		t.Fatalf("x = %d, want 16", env[0])
	}
	var got []uint64
	collectSideConsts(
		sym.NewBin(sym.OpAdd, x, sym.NewConst(250, 8)), sym.NewConst(10, 8), 0, &got)
	for _, v := range got {
		if v > 0xFF {
			t.Fatalf("candidate %d exceeds the 8-bit domain", v)
		}
	}
	// Shift inversion: ((x >> 4) == 0xFF) at width 8 — the derived
	// candidate 0xFF<<4 wraps past the domain and must be masked in.
	got = got[:0]
	collectSideConsts(
		sym.NewBin(sym.OpShr, x, sym.NewConst(4, 8)), sym.NewConst(0xFF, 8), 0, &got)
	for _, v := range got {
		if v > 0xFF {
			t.Fatalf("shift candidate %d exceeds the 8-bit domain", v)
		}
	}
}

// TestSolvePrefixedMatchesSolveHinted: the incremental prefix path must
// agree with the from-scratch path on both Sat models and Unsat proofs.
func TestSolvePrefixedMatchesSolveHinted(t *testing.T) {
	x := v32(0, "x")
	y := v8(1, "y")
	prefix := []sym.Expr{
		sym.NewCmp(sym.OpGt, x, c32(10)),
		sym.NewCmp(sym.OpLt, x, c32(100)),
		sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, x, c32(1)), c32(1)),
	}
	sat := sym.NewCmp(sym.OpEq, y, sym.NewConst(7, 8))
	unsat := sym.NewCmp(sym.OpGt, x, c32(200))

	s := New(Options{})
	env, res := s.SolvePrefixed(append(append([]sym.Expr{}, prefix...), sat), nil)
	if res != Sat {
		t.Fatalf("sat delta: res=%v", res)
	}
	for _, c := range append(append([]sym.Expr{}, prefix...), sat) {
		if !sym.EvalBool(c, env) {
			t.Fatalf("model %v violates %v", env, c)
		}
	}
	if _, res := s.SolvePrefixed(append(append([]sym.Expr{}, prefix...), unsat), nil); res != Unsat {
		t.Fatalf("unsat delta: res=%v", res)
	}
}

// TestSolvePrefixedReusesSnapshots: sibling queries over the same prefix
// must hit the propagated snapshot instead of rebuilding the chain.
func TestSolvePrefixedReusesSnapshots(t *testing.T) {
	x := v32(0, "x")
	prefix := []sym.Expr{
		sym.NewCmp(sym.OpGt, x, c32(10)),
		sym.NewCmp(sym.OpLt, x, c32(1000)),
	}
	s := New(Options{})
	for i := uint64(0); i < 8; i++ {
		delta := sym.NewCmp(sym.OpNe, x, c32(20+i))
		if _, res := s.SolvePrefixed(append(append([]sym.Expr{}, prefix...), delta), nil); res != Sat {
			t.Fatalf("query %d: res=%v", i, res)
		}
	}
	if s.PrefixHits < 7 {
		t.Fatalf("prefix hits = %d, want >= 7 (snapshot not reused)", s.PrefixHits)
	}
}

// TestSolvePrefixedInfeasiblePrefix: a contradictory prefix answers every
// delta Unsat straight from the nil snapshot.
func TestSolvePrefixedInfeasiblePrefix(t *testing.T) {
	x := v32(0, "x")
	prefix := []sym.Expr{
		sym.NewCmp(sym.OpEq, x, c32(1)),
		sym.NewCmp(sym.OpEq, x, c32(2)),
	}
	s := New(Options{})
	cs := append(append([]sym.Expr{}, prefix...), sym.NewCmp(sym.OpGe, x, c32(0)))
	if _, res := s.SolvePrefixed(cs, nil); res != Unsat {
		t.Fatalf("res = %v, want Unsat", res)
	}
}

package solver

import (
	"reflect"
	"slices"
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

// TestDeclareCollectsEachVarOnce: declare lists an expression's variables
// in first-occurrence order, each once — also against variables an
// earlier constraint already declared — and gives each its full domain.
// The order is the search's tie-break, so it is part of every model.
func TestDeclareCollectsEachVarOnce(t *testing.T) {
	x, y := v32(1, "x"), v8(2, "y")
	e := sym.NewBool(sym.OpLAnd,
		sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAdd, y, x), c32(3)),
		sym.NewCmp(sym.OpNe, x, c32(0)))
	st := newState(0)
	vars := st.declare(e, nil)
	// By ID: the interned sum may carry the y and x of an earlier run of
	// this test (-count), structurally equal but other pointers.
	if len(vars) != 2 || vars[0].ID != y.ID || vars[1].ID != x.ID {
		t.Fatalf("declared %v, want [y x]", vars)
	}
	if iv, ok := st.interval(2); !ok || iv != full(8) {
		t.Fatalf("y declared with %v, want its full 8-bit domain", iv)
	}
	if _, ok := st.interval(0); ok {
		t.Fatal("var 0 never occurred but has an interval")
	}
	if again := st.declare(e, vars); len(again) != 2 {
		t.Fatalf("declaring the same expression again grew the list to %d", len(again))
	}
}

// TestStateCloneSharesNothing: a clone and its source never see each
// other's writes — not a narrowed interval, not new known bits, not a
// variable declared past the end of the store.
func TestStateCloneSharesNothing(t *testing.T) {
	st := newState(4) // spare capacity: an append in place would alias
	st.set(0, Interval{0, 100})
	st.set(1, Interval{5, 5})
	c := st.clone()
	c.set(0, Interval{7, 7})
	if _, ok := c.setBits(1, 8, 4, 2); !ok {
		t.Fatal("setBits on the clone contradicted")
	}
	c.set(3, Interval{1, 2})
	if iv, _ := st.interval(0); iv != (Interval{0, 100}) {
		t.Fatalf("source var 0 = %v after the clone narrowed its own", iv)
	}
	if st.cells[1].bits != (bitpair{}) {
		t.Fatalf("source var 1 learned bits %+v from the clone", st.cells[1].bits)
	}
	if _, ok := st.interval(3); ok || len(st.cells) != 2 {
		t.Fatalf("source grew to %d cells when the clone declared var 3", len(st.cells))
	}
	st.set(1, Interval{6, 6})
	if iv, _ := c.interval(1); iv != (Interval{5, 5}) {
		t.Fatalf("clone var 1 = %v after the source moved on", iv)
	}
}

// TestPrefixSnapshotsNeverObserveLaterSets: the chain stores each
// propagated prefix once and every query works on a copy — the delta's
// propagation, the search's trial assignments and a delta that declares a
// new variable must all leave the stored snapshots, and the variable lists
// beside them, what propagating that prefix alone gives (Analyze, which
// shares no state with the chain).
func TestPrefixSnapshotsNeverObserveLaterSets(t *testing.T) {
	x := sym.NewVar(0, "x", 32)
	y := sym.NewVar(1, "y", 8)
	z := sym.NewVar(2, "z", 8)
	prefix := []sym.Expr{
		sym.NewCmp(sym.OpGt, x, c32(10)),
		sym.NewCmp(sym.OpLt, x, c32(1000)),
		sym.NewCmp(sym.OpGe, y, sym.NewConst(3, 8)),
	}
	s := New(Options{})
	for _, delta := range []sym.Expr{
		sym.NewCmp(sym.OpNe, x, c32(11)),                                     // searches: trial assignments
		sym.NewCmp(sym.OpEq, x, c32(500)),                                    // narrows a prefix variable
		sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, x, c32(0xF0)), c32(0x30)), // sets known bits, then searches
		sym.NewCmp(sym.OpLt, z, y),                                           // declares a variable the prefix lacks
		sym.NewCmp(sym.OpGt, x, c32(5000)),                                   // contradicts the prefix
	} {
		s.SolvePrefixed(append(prefix[:len(prefix):len(prefix)], delta), sym.Env{0: 77, 1: 200})
	}

	for n := 1; n <= len(prefix); n++ {
		e := s.prefixes[sym.FingerprintPath(prefix[:n])]
		if e == nil || e.st == nil {
			t.Fatalf("no feasible snapshot stored for prefix[:%d]", n)
		}
		want, ok := Analyze(prefix[:n])
		if !ok {
			t.Fatalf("prefix[:%d] infeasible", n)
		}
		if len(e.vars) != len(want) || len(e.st.cells) != len(want) {
			t.Fatalf("prefix[:%d]: snapshot has %d vars / %d cells, want %d", n, len(e.vars), len(e.st.cells), len(want))
		}
		for id, w := range want {
			c := e.st.cells[id]
			if got := (VarInfo{c.iv.Lo, c.iv.Hi, c.bits.one, c.bits.zero, w.Width}); !c.has || got != w {
				t.Fatalf("prefix[:%d] var %d: snapshot now %+v, propagating the prefix alone gives %+v", n, id, got, w)
			}
		}
	}
}

// TestSolveExtendedNeverCachesExtras: a judge scanning many victims asks
// one path condition many different extra questions; the prefix goes
// into the snapshot chain and is reused, the extras never do, so however
// many are asked the cache holds the prefix's links alone.
func TestSolveExtendedNeverCachesExtras(t *testing.T) {
	x, y := v32(0, "x"), v8(1, "y")
	prefix := []sym.Expr{
		sym.NewCmp(sym.OpGt, x, c32(10)),
		sym.NewCmp(sym.OpLt, x, c32(100000)),
		sym.NewCmp(sym.OpLe, y, sym.NewConst(32, 8)),
	}
	s := New(Options{})
	for v := uint64(0); v < 300; v++ {
		s.SolveExtended(prefix, []sym.Expr{
			sym.NewCmp(sym.OpEq, sym.NewBin(sym.OpAnd, x, c32(0xFFFFFF00)), c32(v<<8)),
			sym.NewCmp(sym.OpGe, y, sym.NewConst(v%33, 8)),
		}, sym.Env{0: 77, 1: 3})
	}
	if len(s.prefixes) != len(prefix) {
		t.Fatalf("%d snapshots cached for a %d-constraint prefix", len(s.prefixes), len(prefix))
	}
	if s.PrefixHits != 299 {
		t.Fatalf("prefix hits = %d, want 299", s.PrefixHits)
	}
}

// TestSiblingLinksKeepTheirLiveSets: links that extend one parent share
// nothing they write. Under parent P (three constraints, all live), A
// adds a constraint that stays live and B one that is entailed at once;
// a link under B that stays live too must leave A's live set — and what
// the chain answers through A — as they were.
func TestSiblingLinksKeepTheirLiveSets(t *testing.T) {
	x := v32(0, "x")
	ne := func(v uint64) sym.Expr { return sym.NewCmp(sym.OpNe, x, c32(v)) }
	p := []sym.Expr{ne(5), ne(6), ne(7)}
	a := append(p[:3:3], ne(8))
	b := append(p[:3:3], sym.NewCmp(sym.OpLe, x, c32(0xFFFFFFFF)))
	s := New(Options{})
	ea := s.prefixFor(a)
	if got, want := ea.liveSet(nil), []int32{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("A's live set %v, want %v", got, want)
	}
	if got := s.prefixFor(b).liveSet(nil); !slices.Equal(got, []int32{0, 1, 2}) {
		t.Fatalf("B's live set %v, want [0 1 2]: B's constraint is entailed", got)
	}
	if got := s.prefixFor(append(b[:4:4], ne(9))).liveSet(nil); !slices.Equal(got, []int32{0, 1, 2, 4}) {
		t.Fatalf("B's child's live set %v, want [0 1 2 4]", got)
	}
	if got, want := ea.liveSet(nil), []int32{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("after B's child, A's live set %v, want %v", got, want)
	}
	// Through A, x ≥ 8 meets x ≠ 8 on its edge: the region starts at 9.
	under := append(a[:4:4], sym.NewCmp(sym.OpGe, x, c32(8)))
	got, ok := s.Analyze(under)
	want, wantOK := Analyze(under)
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("region through A %v (feasible %v), from scratch %v (feasible %v)", got, ok, want, wantOK)
	}
	if want[0].Lo != 9 {
		t.Fatalf("from-scratch region %+v, want Lo 9", want[0])
	}
}

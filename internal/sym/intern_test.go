package sym

import (
	"sync"
	"testing"
)

// TestInterningReturnsSamePointer: constructing the same expression twice
// yields the same node, so structural equality is pointer equality on the
// hot path.
func TestInterningReturnsSamePointer(t *testing.T) {
	x := NewVar(1, "x", 32)
	if NewVar(1, "x", 32) != x {
		t.Fatal("Var not interned")
	}
	if NewConst(42, 32) != NewConst(42, 32) {
		t.Fatal("Const not interned")
	}
	a := NewBin(OpAdd, x, NewConst(7, 32))
	b := NewBin(OpAdd, x, NewConst(7, 32))
	if a != b {
		t.Fatal("Bin not interned")
	}
	c1 := NewCmp(OpLt, x, NewConst(9, 32))
	c2 := NewCmp(OpLt, x, NewConst(9, 32))
	if c1 != c2 {
		t.Fatal("Cmp not interned")
	}
	if NewNot(c1) != NewNot(c2) {
		t.Fatal("negation not interned")
	}
}

// TestHashStructural: structurally equal expressions hash equal whether
// interned or built as struct literals, and hashes are never zero.
func TestHashStructural(t *testing.T) {
	built := NewBin(OpAnd, NewVar(3, "f", 16), NewConst(0xFF, 16))
	literal := &Bin{Op: OpAnd, X: &Var{ID: 3, Name: "f", W: 16}, Y: &Const{V: 0xFF, W: 16}, W: 16}
	if built.Hash() != literal.Hash() {
		t.Fatal("literal and interned node hash differently")
	}
	if !Equal(built, literal) {
		t.Fatal("Equal rejects structurally equal literal")
	}
	for _, e := range []Expr{built, literal, True, False, NewConst(0, 1)} {
		if e.Hash() == 0 {
			t.Fatalf("zero hash for %v", e)
		}
	}
	if NewConst(1, 8).Hash() == NewConst(1, 9).Hash() {
		t.Fatal("width not hashed")
	}
	if NewCmp(OpLt, NewVar(0, "a", 8), NewVar(1, "b", 8)).Hash() ==
		NewCmp(OpGt, NewVar(0, "a", 8), NewVar(1, "b", 8)).Hash() {
		t.Fatal("operator not hashed")
	}
}

// TestEqualDistinguishes: Equal must separate expressions differing in
// any field, at any depth.
func TestEqualDistinguishes(t *testing.T) {
	x, y := NewVar(0, "x", 32), NewVar(1, "y", 32)
	cases := [][2]Expr{
		{x, y},
		{NewConst(1, 32), NewConst(2, 32)},
		{NewConst(1, 32), NewConst(1, 16)},
		{NewBin(OpAdd, x, y), NewBin(OpSub, x, y)},
		{NewCmp(OpLt, x, y), NewCmp(OpLt, y, x)},
		{True, False},
	}
	for _, c := range cases {
		if Equal(c[0], c[1]) {
			t.Errorf("Equal(%v, %v) = true", c[0], c[1])
		}
	}
}

// TestFingerprintRolling: FingerprintPath must equal the incremental
// Extend chain (the frontier rolls prefixes O(1) per branch), and must be
// order- and boundary-sensitive.
func TestFingerprintRolling(t *testing.T) {
	x := NewVar(0, "x", 32)
	cs := []Expr{
		NewCmp(OpLt, x, NewConst(10, 32)),
		NewCmp(OpGt, x, NewConst(2, 32)),
		NewCmp(OpNe, x, NewConst(5, 32)),
	}
	var rolled Fingerprint
	for _, c := range cs {
		rolled = rolled.Extend(c)
	}
	if rolled != FingerprintPath(cs) {
		t.Fatal("incremental Extend disagrees with FingerprintPath")
	}
	if FingerprintPath(cs[:2]) == FingerprintPath(cs) {
		t.Fatal("prefix collides with extension")
	}
	perm := []Expr{cs[1], cs[0], cs[2]}
	if FingerprintPath(perm) == FingerprintPath(cs) {
		t.Fatal("permutation collides")
	}
	if (Fingerprint{}).Mix(1).Extend(cs[0]) == (Fingerprint{}).Extend(cs[0]) {
		t.Fatal("Mix tag has no effect")
	}
	// Deterministic across re-construction (keys must be stable across
	// rounds and engines).
	cs2 := []Expr{
		NewCmp(OpLt, NewVar(0, "x", 32), NewConst(10, 32)),
		NewCmp(OpGt, NewVar(0, "x", 32), NewConst(2, 32)),
		NewCmp(OpNe, NewVar(0, "x", 32), NewConst(5, 32)),
	}
	if FingerprintPath(cs2) != FingerprintPath(cs) {
		t.Fatal("fingerprint unstable across re-construction")
	}
}

// TestEvalOpsMatchExprEval: the allocation-free concrete fast path must
// agree with expression evaluation for every operator.
func TestEvalOpsMatchExprEval(t *testing.T) {
	env := Env{0: 0xDEAD, 1: 0x0BEE}
	x, y := NewVar(0, "x", 16), NewVar(1, "y", 16)
	for op := OpAdd; op <= OpShr; op++ {
		want := Eval(NewBin(op, x, y), env)
		if got := EvalBinOp(op, env[0], env[1], 16); got != want {
			t.Errorf("EvalBinOp(%v) = %d, want %d", op, got, want)
		}
	}
	for op := OpEq; op <= OpGe; op++ {
		want := EvalBool(NewCmp(op, x, y), env)
		if got := EvalCmpOp(op, env[0], env[1], 16); got != want {
			t.Errorf("EvalCmpOp(%v) = %v, want %v", op, got, want)
		}
	}
	// Width masking: values beyond the width must be truncated first.
	if !EvalCmpOp(OpEq, 0x1FF, 0xFF, 8) {
		t.Fatal("EvalCmpOp did not mask operands to width")
	}
}

// TestInternShardReset: overflowing a shard resets it without breaking
// structural equality of pre- and post-reset nodes.
func TestInternShardReset(t *testing.T) {
	before := NewConst(0xABCD, 32)
	// Force enough distinct nodes through the table to trigger resets in
	// at least some shards.
	for i := uint64(0); i < internShardCap*internShardCount/8; i++ {
		NewConst(i, 48)
	}
	after := NewConst(0xABCD, 32)
	if !Equal(before, after) {
		t.Fatal("shard reset broke structural equality")
	}
	if before.Hash() != after.Hash() {
		t.Fatal("shard reset broke hash stability")
	}
	if InternedNodes() > internShardCap*internShardCount {
		t.Fatalf("intern table exceeded its cap: %d nodes", InternedNodes())
	}
}

// TestInternConcurrentSamePointer: goroutines interning the same fresh
// nodes at once — through the lock-free hit path, the locked re-check
// and several table growths — must all end up holding one pointer per
// node. Run under -race.
func TestInternConcurrentSamePointer(t *testing.T) {
	const goroutines, nodes = 4, 4000
	v := NewVar(0, "concurrent-same-pointer", 32)
	got := make([][]Expr, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]Expr, nodes)
		wg.Add(1)
		go func(out []Expr) {
			defer wg.Done()
			for i := range out {
				out[i] = NewCmp(OpEq, NewBin(OpAnd, v, NewConst(uint64(i)<<8, 32)), NewConst(uint64(i), 32))
			}
		}(got[g])
	}
	wg.Wait()
	for i := 0; i < nodes; i++ {
		for g := 1; g < goroutines; g++ {
			if got[g][i] != got[0][i] {
				t.Fatalf("node %d: goroutine %d holds %p, goroutine 0 holds %p", i, g, got[g][i], got[0][i])
			}
		}
	}
}

// TestInternShardStartsOverAtCap: a shard pushed past its cap drops its
// table and keeps working — old and new nodes stay structurally equal,
// and the shard's count falls back under the cap.
func TestInternShardStartsOverAtCap(t *testing.T) {
	before := NewConst(0xC0FFEE, 40)
	s := internShardFor(hashConst(0xC0FFEE, 40))
	for v, filled := uint64(1<<32), 0; filled <= internShardCap; v++ {
		if internShardFor(hashConst(v, 40)) == s {
			NewConst(v, 40)
			filled++
		}
	}
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	if n > internShardCap {
		t.Fatalf("shard holds %d nodes, cap is %d", n, internShardCap)
	}
	after := NewConst(0xC0FFEE, 40)
	if !Equal(before, after) || before.Hash() != after.Hash() {
		t.Fatal("starting a shard over broke structural equality")
	}
	if again := NewConst(0xC0FFEE, 40); again != after {
		t.Fatal("node not interned after the shard started over")
	}
}

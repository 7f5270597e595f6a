package concolic

import (
	"testing"

	"dice/internal/sym"
)

func keyCmp(id int, v uint64) sym.Expr {
	return sym.NewCmp(sym.OpEq, sym.NewVar(id, "k", 8), sym.NewConst(v, 8))
}

// TestFrontierDedupSurvivesForcedCollision: two structurally different
// paths forced under the same fingerprint must BOTH count as new — the
// chain verification turns a collision into a duplicate entry, never a
// lost path. Same contract for negation attempts.
func TestFrontierDedupSurvivesForcedCollision(t *testing.T) {
	f := newFrontier(Generational, nil)
	p1 := []sym.Expr{keyCmp(0, 1)}
	p2 := []sym.Expr{keyCmp(0, 2)}
	sig := PathSig{Hi: 7, Lo: 7} // deliberately shared key

	if !f.recordSeen(sig, nil, p1) {
		t.Fatal("first path not new")
	}
	if !f.recordSeen(sig, nil, p2) {
		t.Fatal("collision suppressed a distinct path")
	}
	if f.recordSeen(sig, nil, p1) {
		t.Fatal("true duplicate not deduped")
	}

	n1, n2 := sym.NewNot(p1[0]), sym.NewNot(p2[0])
	key := sym.Fingerprint{Hi: 9, Lo: 9}
	if !f.recordAttempt(key, nil, p1, 0, n1) {
		t.Fatal("first attempt not new")
	}
	if !f.recordAttempt(key, nil, p2, 0, n2) {
		t.Fatal("collision suppressed a distinct negation")
	}
	if f.recordAttempt(key, nil, p1, 0, n1) {
		t.Fatal("true duplicate attempt not deduped")
	}
}

// TestExploreStateSurvivesForcedCollision: the cross-round maps carry the
// same verification contract as the in-round frontier.
func TestExploreStateSurvivesForcedCollision(t *testing.T) {
	s := NewExploreState()
	p1 := []sym.Expr{keyCmp(0, 1)}
	p2 := []sym.Expr{keyCmp(0, 2)}
	sig := PathSig{Hi: 3, Lo: 3}

	if !s.RecordPath(sig, nil, p1) {
		t.Fatal("first path not first")
	}
	if !s.RecordPath(sig, nil, p2) {
		t.Fatal("collision suppressed a distinct path")
	}
	if s.RecordPath(sig, nil, p1) {
		t.Fatal("true duplicate reported first")
	}
	if s.Stats().Paths != 2 {
		t.Fatalf("Paths = %d, want 2", s.Stats().Paths)
	}

	key := sym.Fingerprint{Hi: 5, Lo: 5}
	it1 := workItem{path: p1, depth: 0, negated: sym.NewNot(p1[0]), key: key}
	it2 := workItem{path: p2, depth: 0, negated: sym.NewNot(p2[0]), key: key}
	s.RecordNegation(it1)
	if !s.SeenNegation(key, nil, p1, 0, it1.negated) {
		t.Fatal("recorded negation not seen")
	}
	if s.SeenNegation(key, nil, p2, 0, it2.negated) {
		t.Fatal("collision reported a foreign negation as seen")
	}
	s.RecordNegation(it2)
	if s.Stats().Negations != 2 {
		t.Fatalf("Negations = %d, want 2", s.Stats().Negations)
	}
	s.RecordNegation(it1) // duplicate: must not double-count
	if s.Stats().Negations != 2 {
		t.Fatalf("duplicate RecordNegation double-counted: %d", s.Stats().Negations)
	}
}

// TestBranchSetExact: the aggregate branch set counts distinct oriented
// constraints exactly, including under a shared node hash.
func TestBranchSetExact(t *testing.T) {
	f := newFrontier(Generational, nil)
	a, b := keyCmp(0, 1), keyCmp(0, 2)
	f.addBranch(a)
	f.addBranch(b)
	f.addBranch(a) // duplicate
	if f.nbranches != 2 {
		t.Fatalf("nbranches = %d, want 2", f.nbranches)
	}
}

// TestWorkItemConjunction: the materialized solver query is
// assumes ∧ path[:depth] ∧ ¬path[depth], in that order.
func TestWorkItemConjunction(t *testing.T) {
	assumes := []sym.Expr{keyCmp(9, 9)}
	path := []sym.Expr{keyCmp(0, 1), keyCmp(1, 2), keyCmp(2, 3)}
	it := workItem{assumes: assumes, path: path, depth: 2, negated: sym.NewNot(path[2])}
	cs := it.conjunction()
	want := []sym.Expr{assumes[0], path[0], path[1], it.negated}
	if !sym.PathsEqual(cs, want) {
		t.Fatalf("conjunction = %v, want %v", cs, want)
	}
}

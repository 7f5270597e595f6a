package sym

import (
	"sync"
	"sync/atomic"
)

// This file implements hash-consing for the IR: every node carries a
// precomputed 64-bit structural hash, constructors intern nodes in a
// sharded table, and Equal decides structural equality with a pointer
// fast path. The engine's dedup/memo layers key on these hashes (via
// Fingerprint) instead of rendered strings, so String() is a debug
// renderer only.
//
// Interning is an optimization, not an invariant: the table is bounded
// (shards reset when they exceed a cap) and genuine 64-bit hash
// collisions refuse to intern, so two structurally equal expressions are
// USUALLY — not always — the same pointer. Consumers that need exact
// equality must call Equal (pointer check first, then hash, then shallow
// structure), which stays cheap precisely because children usually are
// pointer-identical.

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit
// permutation used to combine hash parts.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Type tags keep hashes of different node kinds apart.
const (
	tagVar uint64 = 0xa11ce + iota
	tagConst
	tagBoolTrue
	tagBoolFalse
	tagBin
	tagCmp
	tagBoolBin
	tagNot
)

// nz maps the (1-in-2^64) zero hash onto a fixed nonzero value: node
// hash fields use 0 to mean "not computed" for struct-literal nodes.
func nz(h uint64) uint64 {
	if h == 0 {
		return 0x9e3779b97f4a7c15
	}
	return h
}

func hashString(s string) uint64 {
	// FNV-1a, allocation-free.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func hashVar(id int, name string, w int) uint64 {
	h := mix64(tagVar ^ mix64(uint64(id)))
	h = mix64(h ^ hashString(name))
	return nz(mix64(h ^ uint64(w)))
}

func hashConst(v uint64, w int) uint64 {
	h := mix64(tagConst ^ mix64(v))
	return nz(mix64(h ^ uint64(w)))
}

func hashBin(op BinOp, x, y Expr, w int) uint64 {
	h := mix64(tagBin ^ mix64(uint64(op)))
	h = mix64(h ^ x.Hash())
	h = mix64(h ^ y.Hash())
	return nz(mix64(h ^ uint64(w)))
}

func hashCmp(op CmpOp, x, y Expr) uint64 {
	h := mix64(tagCmp ^ mix64(uint64(op)))
	h = mix64(h ^ x.Hash())
	return nz(mix64(h ^ y.Hash()))
}

func hashBoolBin(op BoolOp, x, y Expr) uint64 {
	h := mix64(tagBoolBin ^ mix64(uint64(op)))
	h = mix64(h ^ x.Hash())
	return nz(mix64(h ^ y.Hash()))
}

func hashNot(x Expr) uint64 {
	return nz(mix64(tagNot ^ x.Hash()))
}

// --- Intern table -----------------------------------------------------------

const (
	internShardCount = 64      // power of two
	internShardBits  = 6       // log2(internShardCount)
	internShardCap   = 1 << 14 // entries per shard before reset (~1M nodes total)
	internMinSlots   = 64      // initial slots per shard; power of two
)

// internSlot is one slot of a shard's table: an interned node under its
// structural hash. A slot is written once, under the shard's mu — e
// first, then h — and never changes afterwards; h is 0 (which nz keeps
// from being any node's hash) until then. A reader that loads the hash
// it is looking for therefore reads a complete e, with no lock.
type internSlot struct {
	h atomic.Uint64
	e Expr
}

// internTable is an open-addressed (linear probing) hash table, at most
// three quarters full. The hash sits in the slot, not behind a pointer:
// a lookup that walks past other nodes touches nothing but the slots.
type internTable struct {
	slots []internSlot // len is a power of two
}

// internShard is one shard of the intern table. Hits — nearly every
// call once a policy's constants and predicates exist — read tab without
// taking mu: exploration workers re-intern the same filter nodes on every
// run, so a lock on the hit path is a lock they all queue on thousands of
// times per run. mu orders writers: slot stores, growth and reset.
type internShard struct {
	mu  sync.Mutex
	tab atomic.Pointer[internTable]
	n   int // nodes in tab; guarded by mu
}

var internTab [internShardCount]internShard

func internShardFor(h uint64) *internShard {
	return &internTab[h&(internShardCount-1)]
}

// get returns the node stored under h, or nil. Safe without mu.
func (t *internTable) get(h uint64) Expr {
	if t == nil {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := (h >> internShardBits) & mask; ; i = (i + 1) & mask {
		switch t.slots[i].h.Load() {
		case h:
			return t.slots[i].e
		case 0:
			return nil
		}
	}
}

// put stores e under h in the first free slot of its probe sequence.
// Caller holds the shard's mu and keeps the table under its load limit.
func (t *internTable) put(h uint64, e Expr) {
	mask := uint64(len(t.slots) - 1)
	i := (h >> internShardBits) & mask
	for t.slots[i].h.Load() != 0 {
		i = (i + 1) & mask
	}
	t.slots[i].e = e
	t.slots[i].h.Store(h) // publishes e
}

// find looks h up, without the lock first. A miss is re-checked under
// mu (another goroutine may have interned the node meanwhile, or swapped
// the table) and, if it stands, returns locked=true with mu HELD: the
// caller builds the node and hands it to commit, which stores it and
// unlocks.
func (s *internShard) find(h uint64) (e Expr, locked bool) {
	if e = s.tab.Load().get(h); e != nil {
		return e, false
	}
	s.mu.Lock()
	if e = s.tab.Load().get(h); e != nil {
		s.mu.Unlock()
		return e, false
	}
	return nil, true
}

// commit ends a find. After a miss (locked) it stores e under h and
// releases mu. After a hit that turned out to be a different node — a
// genuine 64-bit collision — it does nothing: the slot keeps its first
// owner and e stays un-interned, which costs duplicate allocations,
// never correctness (Equal does not rely on pointers). A shard at its
// cap starts over with an empty table for the same price.
func (s *internShard) commit(h uint64, e Expr, locked bool) {
	if !locked {
		return
	}
	defer s.mu.Unlock()
	t := s.tab.Load()
	switch {
	case t == nil || s.n >= internShardCap:
		t = &internTable{slots: make([]internSlot, internMinSlots)}
		s.n = 0
		s.tab.Store(t)
	case 4*(s.n+1) > 3*len(t.slots):
		// Grow into a new table and publish it whole; readers still on
		// the old one miss newer nodes and come back through find's
		// locked re-check.
		g := &internTable{slots: make([]internSlot, 2*len(t.slots))}
		for i := range t.slots {
			if sh := t.slots[i].h.Load(); sh != 0 {
				g.put(sh, t.slots[i].e)
			}
		}
		t = g
		s.tab.Store(t)
	}
	t.put(h, e)
	s.n++
}

func internVar(id int, name string, w int) *Var {
	h := hashVar(id, name, w)
	s := internShardFor(h)
	e, locked := s.find(h)
	if v, ok := e.(*Var); ok && v.ID == id && v.W == w && v.Name == name {
		return v
	}
	v := &Var{ID: id, Name: name, W: w, h: h}
	s.commit(h, v, locked)
	return v
}

func internConst(v uint64, w int) *Const {
	h := hashConst(v, w)
	s := internShardFor(h)
	e, locked := s.find(h)
	if c, ok := e.(*Const); ok && c.V == v && c.W == w {
		return c
	}
	c := &Const{V: v, W: w, h: h}
	s.commit(h, c, locked)
	return c
}

func internBin(op BinOp, x, y Expr, w int) *Bin {
	h := hashBin(op, x, y, w)
	s := internShardFor(h)
	e, locked := s.find(h)
	if b, ok := e.(*Bin); ok && b.Op == op && b.W == w && Equal(b.X, x) && Equal(b.Y, y) {
		return b
	}
	b := &Bin{Op: op, X: x, Y: y, W: w, h: h}
	s.commit(h, b, locked)
	return b
}

func internCmp(op CmpOp, x, y Expr) *Cmp {
	h := hashCmp(op, x, y)
	s := internShardFor(h)
	e, locked := s.find(h)
	if c, ok := e.(*Cmp); ok && c.Op == op && Equal(c.X, x) && Equal(c.Y, y) {
		return c
	}
	c := &Cmp{Op: op, X: x, Y: y, h: h}
	s.commit(h, c, locked)
	return c
}

func internBoolBin(op BoolOp, x, y Expr) *BoolBin {
	h := hashBoolBin(op, x, y)
	s := internShardFor(h)
	e, locked := s.find(h)
	if b, ok := e.(*BoolBin); ok && b.Op == op && Equal(b.X, x) && Equal(b.Y, y) {
		return b
	}
	b := &BoolBin{Op: op, X: x, Y: y, h: h}
	s.commit(h, b, locked)
	return b
}

func internNot(x Expr) *Not {
	h := hashNot(x)
	s := internShardFor(h)
	e, locked := s.find(h)
	if n, ok := e.(*Not); ok && Equal(n.X, x) {
		return n
	}
	n := &Not{X: x, h: h}
	s.commit(h, n, locked)
	return n
}

// InternedNodes reports the current number of interned nodes (for tests
// and capacity monitoring).
func InternedNodes() int {
	n := 0
	for i := range internTab {
		internTab[i].mu.Lock()
		n += internTab[i].n
		internTab[i].mu.Unlock()
	}
	return n
}

// --- Structural equality ----------------------------------------------------

// Equal reports structural equality of two expressions. Interned nodes
// compare by pointer; the hash check rejects almost all unequal pairs
// before any recursion, and recursion bottoms out fast because interned
// children are pointer-identical.
func Equal(a, b Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Hash() != b.Hash() {
		return false
	}
	switch t := a.(type) {
	case *Var:
		o, ok := b.(*Var)
		return ok && t.ID == o.ID && t.W == o.W && t.Name == o.Name
	case *Const:
		o, ok := b.(*Const)
		return ok && t.V == o.V && t.W == o.W
	case BoolConst:
		o, ok := b.(BoolConst)
		return ok && t == o
	case *Bin:
		o, ok := b.(*Bin)
		return ok && t.Op == o.Op && t.W == o.W && Equal(t.X, o.X) && Equal(t.Y, o.Y)
	case *Cmp:
		o, ok := b.(*Cmp)
		return ok && t.Op == o.Op && Equal(t.X, o.X) && Equal(t.Y, o.Y)
	case *BoolBin:
		o, ok := b.(*BoolBin)
		return ok && t.Op == o.Op && Equal(t.X, o.X) && Equal(t.Y, o.Y)
	case *Not:
		o, ok := b.(*Not)
		return ok && Equal(t.X, o.X)
	}
	return false
}

// PathsEqual reports element-wise structural equality of two constraint
// sequences (the collision-verification step behind fingerprint-keyed
// dedup).
func PathsEqual(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// --- Fingerprints -----------------------------------------------------------

// Fingerprint is a 128-bit order-sensitive rolling hash over a sequence
// of expressions. It replaces rendered strings as the key for path
// signatures, negation dedup, and solver memoization: Extend is O(1), so
// per-branch prefix keys roll along a path instead of being rebuilt from
// scratch. Two equal sequences always produce equal fingerprints;
// consumers that must be exact under adversarial collisions pair the
// fingerprint with a PathsEqual verification of the keyed expressions.
type Fingerprint struct {
	Hi, Lo uint64
}

// Odd multipliers make the rolling step injective in each lane; the two
// lanes evolve independently, so a collision must happen in both at once.
const (
	fpMulLo = 0x9e3779b97f4a7c15
	fpMulHi = 0xc2b2ae3d27d4eb4f
)

// Extend returns the fingerprint of the sequence with e appended. O(1).
func (f Fingerprint) Extend(e Expr) Fingerprint {
	h := e.Hash()
	return Fingerprint{
		Lo: f.Lo*fpMulLo + h,
		Hi: f.Hi*fpMulHi + mix64(h),
	}
}

// Mix folds a domain-separation tag into the fingerprint (e.g. to mark
// the boundary between assumption and branch constraints in a path key).
func (f Fingerprint) Mix(tag uint64) Fingerprint {
	return Fingerprint{
		Lo: f.Lo*fpMulLo + mix64(tag^tagNot),
		Hi: f.Hi*fpMulHi + mix64(tag),
	}
}

// FingerprintPath fingerprints a whole constraint sequence. Equivalent
// to extending the zero Fingerprint with each element in order.
func FingerprintPath(cs []Expr) Fingerprint {
	var f Fingerprint
	for _, c := range cs {
		f = f.Extend(c)
	}
	return f
}

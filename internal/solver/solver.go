// Package solver finds concrete variable assignments satisfying a
// conjunction of sym boolean constraints. It plays the role STP plays for
// Oasis/Crest in the paper: given the path condition with one predicate
// negated, produce a new concrete input.
//
// The algorithm is interval constraint propagation over the expression DAG
// (forward evaluation + backward refinement for comparisons) followed by
// systematic backtracking search over the remaining variable domains, with
// a node budget so the concolic engine degrades gracefully on hard
// constraints rather than hanging exploration.
package solver

import (
	"maps"
	"slices"

	"dice/internal/sym"
)

// Interval is an inclusive unsigned range [Lo, Hi].
type Interval struct {
	Lo, Hi uint64
}

// full returns the complete domain for a width.
func full(w int) Interval {
	if w >= 64 {
		return Interval{0, ^uint64(0)}
	}
	return Interval{0, (uint64(1) << uint(w)) - 1}
}

func (iv Interval) empty() bool  { return iv.Lo > iv.Hi }
func (iv Interval) single() bool { return iv.Lo == iv.Hi }

// size returns the number of values in the interval, saturating at
// MaxUint64: the full 64-bit domain holds 2^64 values, which does not fit
// in a uint64 (Hi-Lo+1 would wrap to 0 and make the widest domain look
// like the most constrained one). Undefined if empty.
func (iv Interval) size() uint64 {
	d := iv.Hi - iv.Lo
	if d == ^uint64(0) {
		return d
	}
	return d + 1
}
func (iv Interval) contains(v uint64) bool {
	return v >= iv.Lo && v <= iv.Hi
}

func (iv Interval) intersect(o Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	return Interval{lo, hi}
}

// bitpair tracks bits proven 1 (one) and proven 0 (zero) for a variable —
// a known-bits abstract domain that captures the (x & mask) == net and
// ((x >> k) & 1) == b predicates routers are full of, which plain
// intervals cannot represent.
type bitpair struct {
	one, zero uint64
}

// cell is one variable's abstract value: an interval and a known-bits
// pair, kept mutually consistent by setBits. has is false until the
// variable is given an interval; such a variable reads as the full domain
// of its width.
type cell struct {
	iv   Interval
	bits bitpair
	has  bool
}

// state is the solver's abstract store, dense: cells[id] belongs to the
// variable with that ID. The concolic engine numbers its inputs from 0 in
// declaration order, so the slice is as long as the input model is wide
// (4–5 cells for the BGP scenarios) and a clone is one copy, which
// matters because search clones once per trial value and the prefix chain
// once per link. Variable IDs must be non-negative.
//
// moved logs the variables whose cell narrowed since the worklist last
// woke their constraints (worklist.go); a clone starts with none.
type state struct {
	cells []cell
	moved []int32
}

func newState(n int) *state {
	return &state{cells: make([]cell, 0, n)}
}

// clone returns a copy that shares nothing with st: stored prefix
// snapshots stay immutable whatever a query later sets on its own copy.
func (st *state) clone() *state {
	return &state{cells: append([]cell(nil), st.cells...)}
}

// interval returns the variable's interval, if it has one.
func (st *state) interval(id int) (Interval, bool) {
	if id < len(st.cells) {
		return st.cells[id].iv, st.cells[id].has
	}
	return Interval{}, false
}

// at returns the variable's cell for writing, growing the store to reach
// it.
func (st *state) at(id int) *cell {
	if id >= len(st.cells) {
		st.cells = append(st.cells, make([]cell, id+1-len(st.cells))...)
	}
	return &st.cells[id]
}

// set narrows a variable's interval to iv and logs the move.
func (st *state) set(id int, iv Interval) {
	c := st.at(id)
	c.iv, c.has = iv, true
	st.moved = append(st.moved, int32(id))
}

// declare appends to vars the variables of e the store has no interval
// for yet, in first-occurrence order, giving each its full domain.
func (st *state) declare(e sym.Expr, vars []*sym.Var) []*sym.Var {
	switch t := e.(type) {
	case *sym.Var:
		if _, ok := st.interval(t.ID); !ok {
			c := st.at(t.ID)
			c.iv, c.has = full(t.W), true
			vars = append(vars, t)
		}
	case *sym.Bin:
		vars = st.declare(t.Y, st.declare(t.X, vars))
	case *sym.Cmp:
		vars = st.declare(t.Y, st.declare(t.X, vars))
	case *sym.BoolBin:
		vars = st.declare(t.Y, st.declare(t.X, vars))
	case *sym.Not:
		vars = st.declare(t.X, vars)
	}
	return vars
}

// setBits merges new known bits for a var. It returns changed=false,
// ok=false on contradiction (a bit required to be both 0 and 1), and
// tightens the interval: any value with `one` bits set is >= one, and any
// value with `zero` bits clear is <= fullMask &^ zero.
func (st *state) setBits(id int, w int, one, zero uint64) (changed, ok bool) {
	m := full(w).Hi
	one &= m
	zero &= m
	c := st.at(id)
	nOne, nZero := c.bits.one|one, c.bits.zero|zero
	if nOne&nZero != 0 {
		return false, false
	}
	if nOne != c.bits.one || nZero != c.bits.zero {
		c.bits = bitpair{nOne, nZero}
		changed = true
	}
	iv := full(w)
	if c.has {
		iv = c.iv
	}
	niv := iv.intersect(Interval{nOne, m &^ nZero})
	if niv.empty() {
		return changed, false
	}
	if niv != iv {
		c.iv, c.has = niv, true
		changed = true
	}
	if changed {
		st.moved = append(st.moved, int32(id))
	}
	return changed, true
}

// project forces v to agree with the known bits of var id.
func (st *state) project(id int, v uint64) uint64 {
	if id >= len(st.cells) {
		return v
	}
	bp := st.cells[id].bits
	return (v &^ bp.zero) | bp.one
}

// Options tunes the solver.
type Options struct {
	// MaxNodes bounds backtracking search nodes; 0 means DefaultMaxNodes.
	MaxNodes int
}

// DefaultMaxNodes is the default backtracking budget.
const DefaultMaxNodes = 200000

// Result of a Solve call.
type Result int

// Solve outcomes.
const (
	Unsat   Result = iota // proven or budget-exhausted unsatisfiable
	Sat                   // model found
	Unknown               // budget exhausted without a model or a proof
)

func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	}
	return "unknown"
}

// Solver holds cross-call statistics, the propagated-prefix snapshot
// chain and the worklist's scratch buffers; methods are not safe for
// concurrent use — the concolic engine creates one Solver per worker.
type Solver struct {
	opts Options

	// Incremental prefix solving (prefix.go): propagated snapshots keyed
	// by prefix fingerprint, reused across sibling negation queries.
	prefixes  map[sym.Fingerprint]*prefixEntry
	fpScratch []sym.Fingerprint

	// Worklist propagation (worklist.go): per-constraint stamps of the
	// current settle — live, and queued — and whether the live set is
	// stamped yet; the queue, the moved-cell log and occurrence nodes;
	// push's scratch (one constraint's variable IDs and constants) and
	// extendPrefix's one fresh constraint.
	live, queued []uint32
	gen          uint32
	stamped      bool
	queue        []int32
	moved        []int32
	occs         []occ
	ids          []int32
	found        []uint64
	fresh        [1]int32
	capped       int // settles stopped by the work bound

	// Search stacks: the live sets and candidate lists of the search
	// nodes on the current branch, candidates' dedup scratch, the states
	// of finished trials for the next ones to copy into, the conjunction
	// SolveExtended assembles and the model firstModel checks.
	arena  []int32
	vals   []uint64
	sorted []uint64
	spare  []*state
	cat    []sym.Expr
	env    sym.Env

	// Stats accumulate across Solve calls.
	Calls        int
	SatCount     int
	UnsatCount   int
	Nodes        int // total search nodes expanded
	Propagations int // constraint propagations run
	PrefixHits   int // queries answered from a cached prefix snapshot
	PrefixMisses int // queries that had to extend or rebuild the chain
}

// New creates a solver with the given options.
func New(opts Options) *Solver {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = DefaultMaxNodes
	}
	return &Solver{opts: opts}
}

// Solve searches for an assignment satisfying every constraint. On Sat the
// returned env binds every variable occurring in the constraints.
func (s *Solver) Solve(constraints []sym.Expr) (sym.Env, Result) {
	return s.SolveHinted(constraints, nil)
}

// query is one conjunction being solved: its constraints, its variables
// in first-occurrence order (the search's tie-break) and its index.
type query struct {
	cs   []sym.Expr
	vars []*sym.Var
	ix   index
}

// fromScratch declares and indexes every constraint of cs — with the
// candidates' constants when the query will search — appends their
// indexes to the arena and propagates them to a fixpoint from ⊤. It
// returns the query, the propagated state and the live set (an arena
// suffix the caller truncates); ok=false means Unsat.
func (s *Solver) fromScratch(cs []sym.Expr, search bool) (q *query, st *state, live []int32, ok bool) {
	q = &query{cs: cs}
	st = newState(8)
	mark := len(s.arena)
	for i, c := range cs {
		q.vars = st.declare(c, q.vars)
		q.ix = s.push(q.ix, c, int32(i), search)
		s.arena = append(s.arena, int32(i))
	}
	end := len(s.arena)
	if _, ok = s.settle(cs, q.ix, st, nil, s.arena[mark:end]); ok {
		s.arena = s.survivors(nil, s.arena[mark:end], s.arena)
	}
	return q, st, s.arena[end:], ok
}

// SolveHinted is Solve with a hint: preferred values for variables, tried
// first so solutions stay close to them (the oracles pass the path's
// concrete input; the concolic scheduler, through SolvePrefixed, each
// negation's parent assignment).
func (s *Solver) SolveHinted(constraints []sym.Expr, hint sym.Env) (sym.Env, Result) {
	s.Calls++
	mark := len(s.arena)
	defer func() { s.arena = s.arena[:mark] }()
	q, st, live, ok := s.fromScratch(constraints, true)
	if !ok {
		s.UnsatCount++
		return nil, Unsat
	}
	return s.answer(q, st, live, hint)
}

// answer searches the propagated state of q for a model and keeps the
// outcome statistics.
func (s *Solver) answer(q *query, st *state, live []int32, hint sym.Env) (sym.Env, Result) {
	if env, ok := s.firstModel(q, st, hint); ok {
		s.SatCount++
		return env, Sat
	}
	budget := s.opts.MaxNodes
	complete := true
	env, ok := s.search(q, st, live, hint, &budget, &complete)
	if ok {
		s.SatCount++
		return env, Sat
	}
	if budget <= 0 || !complete {
		return nil, Unknown
	}
	s.UnsatCount++
	return nil, Unsat
}

// firstModel is the model search returns when its first descent reaches
// one. Search picks the most-constrained open variable, tries its hint
// (projected onto its known bits) when the interval holds it and else
// its first candidate, and goes deeper trying hints first. When every
// other open variable's projected hint lies in its interval, the values
// of that first descent are known at the root, and if together with the
// values propagation fixed they satisfy the whole conjunction, search
// finds exactly them: domains are sound, so the model is never
// projected away, excluded or refuted on the way down, and it takes one
// node per open variable plus the leaf, which the budget covers. The
// concrete check then answers without a single trial. That is the
// common case: a negation's hint misses the delta in one variable, and
// a path oracle's hint is the path's own input. The last constraints
// are checked first, since the hint violates a negation's delta when it
// misses at all.
func (s *Solver) firstModel(q *query, st *state, hint sym.Env) (sym.Env, bool) {
	if len(q.vars) >= s.opts.MaxNodes {
		return nil, false
	}
	pick := pickVar(q, st)
	if s.env == nil {
		s.env = make(sym.Env, len(q.vars))
	}
	env := s.env
	clear(env)
	for _, v := range q.vars {
		iv := st.cells[v.ID].iv
		if iv.single() {
			env[v.ID] = iv.Lo
			continue
		}
		hv, ok := hint[v.ID]
		if hv = st.project(v.ID, hv); ok && iv.contains(hv) {
			env[v.ID] = hv
			continue
		}
		if v != pick {
			return nil, false
		}
		mark := len(s.vals)
		cands := s.candidates(q, v, st)
		s.vals = s.vals[:mark]
		if len(cands) == 0 {
			return nil, false
		}
		env[v.ID] = cands[0]
	}
	for i := len(q.cs) - 1; i >= 0; i-- {
		if !sym.EvalBool(q.cs[i], env) {
			return nil, false
		}
	}
	return maps.Clone(env), true
}

// VarInfo is the abstract region of one variable after propagation: an
// interval plus known bits. Used by oracles to describe input regions
// (e.g. "which prefix ranges can be leaked") without enumeration.
type VarInfo struct {
	Lo, Hi    uint64
	One, Zero uint64 // bits proven 1 / proven 0
	Width     int
}

// Analyze propagates the constraints and returns each variable's abstract
// region. feasible=false means the constraints are contradictory under
// the interval/bits abstraction (definitely unsat).
func Analyze(constraints []sym.Expr) (map[int]VarInfo, bool) {
	return New(Options{}).analyze(constraints)
}

// analyze is Analyze on s: propagated from scratch, never cached.
func (s *Solver) analyze(cs []sym.Expr) (map[int]VarInfo, bool) {
	q, st, _, ok := s.fromScratch(cs, false)
	if !ok {
		return nil, false
	}
	return region(q.vars, st), true
}

// region reads each variable's abstract region out of a propagated state.
func region(vars []*sym.Var, st *state) map[int]VarInfo {
	out := make(map[int]VarInfo, len(vars))
	for _, v := range vars {
		c := st.cells[v.ID]
		out[v.ID] = VarInfo{Lo: c.iv.Lo, Hi: c.iv.Hi, One: c.bits.one, Zero: c.bits.zero, Width: v.W}
	}
	return out
}

// propagate refines domains so that formula e evaluates to want. It
// reports whether any domain changed, ok=false on UNSAT, and — meaningful
// only when nothing changed — whether e is entailed: evalFormula decides
// it to be want under the domains, read off the evaluations propagation
// made anyway.
func propagate(e sym.Expr, want bool, st *state) (changed, ok, entailed bool) {
	switch t := e.(type) {
	case sym.BoolConst:
		return false, bool(t) == want, bool(t) == want
	case *sym.Not:
		return propagate(t.X, !want, st)
	case *sym.BoolBin:
		return propagateBool(t, want, st)
	case *sym.Cmp:
		return propagateCmp(t, want, st)
	}
	// Bitvector expression used as a condition: nonzero means true.
	// evalFormula decides no such expression, so it is never entailed.
	if !e.IsBool() {
		cmp := sym.NewCmp(sym.OpNe, e, sym.NewConst(0, e.Width()))
		if c, ok := cmp.(*sym.Cmp); ok {
			changed, ok, _ := propagateCmp(c, want, st)
			return changed, ok, false
		}
		if bc, ok := cmp.(sym.BoolConst); ok {
			return false, bool(bc) == want, false
		}
	}
	return false, true, false
}

func propagateBool(t *sym.BoolBin, want bool, st *state) (changed, ok, entailed bool) {
	conjunctive := (t.Op == sym.OpLAnd && want) || (t.Op == sym.OpLOr && !want)
	if conjunctive {
		// Both sides are forced; propagate each.
		c1, ok, e1 := propagate(t.X, t.Op == sym.OpLAnd, st)
		if !ok {
			return c1, false, false
		}
		c2, ok, e2 := propagate(t.Y, t.Op == sym.OpLAnd, st)
		return c1 || c2, ok, e1 && e2
	}
	// Disjunctive case: only refine when one branch is already impossible.
	forced := t.Op == sym.OpLOr // want=true for Or, want=false for And
	xv, xKnown := evalFormula(t.X, st)
	yv, yKnown := evalFormula(t.Y, st)
	if xKnown && xv != forced {
		return propagate(t.Y, forced, st)
	}
	if yKnown && yv != forced {
		return propagate(t.X, forced, st)
	}
	return false, true, xKnown || yKnown // a known side is one equal to forced
}

// evalFormula decides a formula under current domains if possible.
func evalFormula(e sym.Expr, st *state) (val, known bool) {
	switch t := e.(type) {
	case sym.BoolConst:
		return bool(t), true
	case *sym.Not:
		v, k := evalFormula(t.X, st)
		return !v, k
	case *sym.BoolBin:
		xv, xk := evalFormula(t.X, st)
		yv, yk := evalFormula(t.Y, st)
		if t.Op == sym.OpLAnd {
			if xk && !xv || yk && !yv {
				return false, true
			}
			if xk && yk {
				return xv && yv, true
			}
		} else {
			if xk && xv || yk && yv {
				return true, true
			}
			if xk && yk {
				return xv || yv, true
			}
		}
		return false, false
	case *sym.Cmp:
		ix := evalInterval(t.X, st)
		iy := evalInterval(t.Y, st)
		return decideCmp(t.Op, ix, iy)
	}
	return false, false
}

// decideCmp decides op over two intervals when the intervals separate.
func decideCmp(op sym.CmpOp, x, y Interval) (val, known bool) {
	switch op {
	case sym.OpEq:
		if x.single() && y.single() && x.Lo == y.Lo {
			return true, true
		}
		if x.Hi < y.Lo || y.Hi < x.Lo {
			return false, true
		}
	case sym.OpNe:
		v, k := decideCmp(sym.OpEq, x, y)
		return !v, k
	case sym.OpLt:
		if x.Hi < y.Lo {
			return true, true
		}
		if x.Lo >= y.Hi {
			return false, true
		}
	case sym.OpLe:
		if x.Hi <= y.Lo {
			return true, true
		}
		if x.Lo > y.Hi {
			return false, true
		}
	case sym.OpGt:
		return decideCmp(sym.OpLt, y, x)
	case sym.OpGe:
		return decideCmp(sym.OpLe, y, x)
	}
	return false, false
}

// propagateCmp refines operand domains so the comparison has truth `want`.
func propagateCmp(t *sym.Cmp, want bool, st *state) (changed, ok, entailed bool) {
	op := t.Op
	if !want {
		op = op.Negated()
	}
	ix := evalInterval(t.X, st)
	iy := evalInterval(t.Y, st)
	if ix.empty() || iy.empty() {
		return false, false, false
	}
	v, known := decideCmp(t.Op, ix, iy)
	entailed = known && v == want

	var nx, ny Interval
	switch op {
	case sym.OpEq:
		both := ix.intersect(iy)
		nx, ny = both, both
	case sym.OpNe:
		nx, ny = ix, iy
		// Only useful refinement: exclude a singleton at a domain edge.
		if iy.single() {
			nx = excludeEdge(ix, iy.Lo)
		}
		if ix.single() {
			ny = excludeEdge(iy, ix.Lo)
		}
	case sym.OpLt:
		if iy.Hi == 0 {
			return false, false, false // nothing is < 0 unsigned
		}
		nx = ix.intersect(Interval{0, iy.Hi - 1})
		ny = iy
		if ix.Lo < ^uint64(0) {
			ny = iy.intersect(Interval{ix.Lo + 1, ^uint64(0)})
		}
	case sym.OpLe:
		nx = ix.intersect(Interval{0, iy.Hi})
		ny = iy.intersect(Interval{ix.Lo, ^uint64(0)})
	case sym.OpGt:
		if ix.Hi == 0 {
			return false, false, false
		}
		ny = iy.intersect(Interval{0, ix.Hi - 1})
		nx = ix
		if iy.Lo < ^uint64(0) {
			nx = ix.intersect(Interval{iy.Lo + 1, ^uint64(0)})
		}
	case sym.OpGe:
		nx = ix.intersect(Interval{iy.Lo, ^uint64(0)})
		ny = iy.intersect(Interval{0, ix.Hi})
	}
	if nx.empty() || ny.empty() {
		return false, false, false
	}
	c1, ok1 := backProp(t.X, nx, st)
	if !ok1 {
		return c1, false, false
	}
	c2, ok2 := backProp(t.Y, ny, st)
	if !ok2 {
		return c1 || c2, false, false
	}
	// Known-bits refinement for masked-field equalities.
	c3, ok3 := propagateBits(t.X, t.Y, op, st)
	if !ok3 {
		return c1 || c2 || c3, false, false
	}
	c4, ok4 := propagateBits(t.Y, t.X, op, st)
	return c1 || c2 || c3 || c4, ok4, entailed
}

// propagateBits refines known bits when `side` matches the masked-field
// pattern ((var >> shift) & mask) and `other` is a constant. Handles Eq
// directly and Ne on single-bit masks (which is Eq of the flipped bit).
func propagateBits(side, other sym.Expr, op sym.CmpOp, st *state) (bool, bool) {
	cst, ok := constValue(other, st)
	if !ok {
		return false, true
	}
	id, w, shift, mask, ok := extractMaskedVar(side)
	if !ok {
		return false, true
	}
	c := cst
	switch op {
	case sym.OpEq:
	case sym.OpNe:
		// Single-bit field: != b means == !b.
		if mask != 1 || c > 1 {
			return false, true
		}
		c ^= 1
	default:
		return false, true
	}
	if c&^mask != 0 {
		return false, false // field can never equal a value outside its mask
	}
	one := (c & mask) << shift
	zero := (mask &^ c) << shift
	return st.setBits(id, w, one, zero)
}

// constValue resolves e to a constant (literal or singleton domain).
func constValue(e sym.Expr, st *state) (uint64, bool) {
	if c, ok := e.(*sym.Const); ok {
		return c.V, true
	}
	if v, ok := e.(*sym.Var); ok {
		if iv, ok2 := st.interval(v.ID); ok2 && iv.single() {
			return iv.Lo, true
		}
	}
	return 0, false
}

// extractMaskedVar matches e against the shape ((v >> shift) & mask),
// where shift/mask arise from any composition of right-shifts and
// and-masks with constants. Returns the variable, its width, and the
// effective shift and mask such that e == (v >> shift) & mask.
func extractMaskedVar(e sym.Expr) (id, w int, shift uint64, mask uint64, ok bool) {
	switch t := e.(type) {
	case *sym.Var:
		return t.ID, t.W, 0, full(t.W).Hi, true
	case *sym.Bin:
		switch t.Op {
		case sym.OpShr:
			k, isC := t.Y.(*sym.Const)
			if !isC || k.V >= 64 {
				return 0, 0, 0, 0, false
			}
			id, w, shift, mask, ok = extractMaskedVar(t.X)
			if !ok {
				return 0, 0, 0, 0, false
			}
			return id, w, shift + k.V, mask >> k.V, true
		case sym.OpAnd:
			if m, isC := t.Y.(*sym.Const); isC {
				id, w, shift, mask, ok = extractMaskedVar(t.X)
				if !ok {
					return 0, 0, 0, 0, false
				}
				return id, w, shift, mask & m.V, true
			}
			if m, isC := t.X.(*sym.Const); isC {
				id, w, shift, mask, ok = extractMaskedVar(t.Y)
				if !ok {
					return 0, 0, 0, 0, false
				}
				return id, w, shift, mask & m.V, true
			}
		}
	}
	return 0, 0, 0, 0, false
}

// excludeEdge removes v from iv when v sits on an edge of iv.
func excludeEdge(iv Interval, v uint64) Interval {
	if iv.single() && iv.Lo == v {
		return Interval{1, 0} // empty
	}
	if iv.Lo == v {
		return Interval{iv.Lo + 1, iv.Hi}
	}
	if iv.Hi == v {
		return Interval{iv.Lo, iv.Hi - 1}
	}
	return iv
}

// evalInterval computes a sound over-approximation of e's value range.
func evalInterval(e sym.Expr, st *state) Interval {
	switch t := e.(type) {
	case *sym.Var:
		if iv, ok := st.interval(t.ID); ok {
			return iv
		}
		return full(t.W)
	case *sym.Const:
		return Interval{t.V, t.V}
	case sym.BoolConst:
		if bool(t) {
			return Interval{1, 1}
		}
		return Interval{0, 0}
	case *sym.Cmp, *sym.BoolBin, *sym.Not:
		if v, k := evalFormula(e, st); k {
			if v {
				return Interval{1, 1}
			}
			return Interval{0, 0}
		}
		return Interval{0, 1}
	case *sym.Bin:
		return evalBinInterval(t, st)
	}
	return full(e.Width())
}

func evalBinInterval(t *sym.Bin, st *state) Interval {
	x := evalInterval(t.X, st)
	y := evalInterval(t.Y, st)
	if x.empty() || y.empty() {
		return Interval{1, 0}
	}
	w := t.W
	top := full(w)
	switch t.Op {
	case sym.OpAdd:
		lo, loOv := addOv(x.Lo, y.Lo)
		hi, hiOv := addOv(x.Hi, y.Hi)
		if !loOv && !hiOv && hi <= top.Hi {
			return Interval{lo, hi}
		}
		return top
	case sym.OpSub:
		if x.Lo >= y.Hi { // no wraparound possible
			return Interval{x.Lo - y.Hi, x.Hi - y.Lo}
		}
		return top
	case sym.OpMul:
		hi, ov := mulOv(x.Hi, y.Hi)
		if !ov && hi <= top.Hi {
			lo, _ := mulOv(x.Lo, y.Lo)
			return Interval{lo, hi}
		}
		return top
	case sym.OpDiv:
		if y.Lo > 0 {
			return Interval{x.Lo / y.Hi, x.Hi / y.Lo}
		}
		return top // divisor may be 0 (defined as all-ones)
	case sym.OpMod:
		if y.Lo > 0 && y.Hi > 0 {
			// x mod y < y.Hi; also <= x.Hi.
			hi := y.Hi - 1
			if x.Hi < hi {
				hi = x.Hi
			}
			return Interval{0, hi}
		}
		return Interval{0, maxU(x.Hi, top.Hi)}
	case sym.OpAnd:
		hi := x.Hi
		if y.Hi < hi {
			hi = y.Hi
		}
		return Interval{0, hi}
	case sym.OpOr:
		lo := maxU(x.Lo, y.Lo)
		hi, ov := addOv(x.Hi, y.Hi)
		if ov || hi > top.Hi {
			hi = top.Hi
		}
		return Interval{lo, hi}
	case sym.OpXor:
		hi, ov := addOv(x.Hi, y.Hi)
		if ov || hi > top.Hi {
			hi = top.Hi
		}
		return Interval{0, hi}
	case sym.OpShl:
		if y.single() {
			sh := y.Lo
			if sh >= uint64(w) {
				return Interval{0, 0}
			}
			hi, ov := shlOv(x.Hi, sh)
			if !ov && hi <= top.Hi {
				lo, _ := shlOv(x.Lo, sh)
				return Interval{lo, hi}
			}
		}
		return top
	case sym.OpShr:
		if y.single() {
			sh := y.Lo
			if sh >= uint64(w) {
				return Interval{0, 0}
			}
			return Interval{x.Lo >> sh, x.Hi >> sh}
		}
		return Interval{0, x.Hi}
	}
	return top
}

func addOv(a, b uint64) (uint64, bool) {
	s := a + b
	return s, s < a
}

func mulOv(a, b uint64) (uint64, bool) {
	if a == 0 || b == 0 {
		return 0, false
	}
	p := a * b
	return p, p/a != b
}

func shlOv(a, sh uint64) (uint64, bool) {
	if sh >= 64 {
		return 0, a != 0
	}
	r := a << sh
	return r, r>>sh != a
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// backProp pushes an allowed interval down through an expression to refine
// variable domains. Refinements must be sound (never exclude a satisfying
// value); where inversion is unsafe (wraparound, non-const operands) it
// refines nothing.
func backProp(e sym.Expr, allowed Interval, st *state) (bool, bool) {
	switch t := e.(type) {
	case *sym.Var:
		cur, ok := st.interval(t.ID)
		if !ok {
			cur = full(t.W)
		}
		nv := cur.intersect(allowed)
		if nv.empty() {
			return false, false
		}
		if nv != cur {
			st.set(t.ID, nv)
			return true, true
		}
		return false, true
	case *sym.Const:
		if allowed.contains(t.V) {
			return false, true
		}
		return false, false
	case *sym.Bin:
		return backPropBin(t, allowed, st)
	}
	// Formulas and anything else: check feasibility only.
	iv := evalInterval(e, st)
	if iv.intersect(allowed).empty() {
		return false, false
	}
	return false, true
}

// constOrSingle reports whether e is a constant or has a singleton domain
// under doms, and returns its value. Singleton domains let backProp invert
// ops like x+y once propagation pins one operand (e.g. x==3 ∧ x+y==10).
func constOrSingle(e sym.Expr, st *state) (uint64, bool) {
	if c, ok := e.(*sym.Const); ok {
		return c.V, true
	}
	if v, ok := e.(*sym.Var); ok {
		if iv, ok2 := st.interval(v.ID); ok2 && iv.single() {
			return iv.Lo, true
		}
	}
	return 0, false
}

func backPropBin(t *sym.Bin, allowed Interval, st *state) (bool, bool) {
	// Feasibility check first.
	iv := evalBinInterval(t, st)
	if iv.intersect(allowed).empty() {
		return false, false
	}
	yVal, yConst := constOrSingle(t.Y, st)
	xVal, xConst := constOrSingle(t.X, st)
	w := t.W
	top := full(w)
	yVal &= top.Hi
	xVal &= top.Hi

	switch t.Op {
	case sym.OpAdd:
		if yConst {
			// x + c in [lo,hi]  =>  x in [lo-c, hi-c] when no wrap occurs.
			if allowed.Lo >= yVal && allowed.Hi >= yVal && allowed.Hi <= top.Hi {
				return backProp(t.X, Interval{allowed.Lo - yVal, allowed.Hi - yVal}, st)
			}
		}
		if xConst {
			if allowed.Lo >= xVal && allowed.Hi >= xVal && allowed.Hi <= top.Hi {
				return backProp(t.Y, Interval{allowed.Lo - xVal, allowed.Hi - xVal}, st)
			}
		}
	case sym.OpSub:
		if yConst {
			// x - c in [lo,hi] => x in [lo+c, hi+c] when no overflow.
			lo, ov1 := addOv(allowed.Lo, yVal)
			hi, ov2 := addOv(allowed.Hi, yVal)
			if !ov1 && !ov2 && hi <= top.Hi {
				return backProp(t.X, Interval{lo, hi}, st)
			}
		}
		if xConst {
			// c - y in [lo,hi] => y in [c-hi, c-lo] when no wrap.
			if xVal >= allowed.Hi && allowed.Hi >= allowed.Lo {
				return backProp(t.Y, Interval{xVal - allowed.Hi, xVal - allowed.Lo}, st)
			}
		}
	case sym.OpShr:
		if yConst && yVal < uint64(w) {
			// x >> c in [lo,hi] => x in [lo<<c, ((hi+1)<<c)-1].
			lo, ov1 := shlOv(allowed.Lo, yVal)
			hiBase, ov2 := shlOv(allowed.Hi+1, yVal)
			if !ov1 && !ov2 && allowed.Hi < top.Hi {
				hi := hiBase - 1
				if hi > top.Hi {
					hi = top.Hi
				}
				return backProp(t.X, Interval{lo, hi}, st)
			}
			if !ov1 {
				return backProp(t.X, Interval{lo, top.Hi}, st)
			}
		}
	case sym.OpShl:
		if yConst && yVal < uint64(w) {
			// x << c in [lo,hi] => x in [lo>>c, hi>>c], but only when the
			// shift cannot drop high bits: a wrapped x<<c lands anywhere.
			if xi := evalInterval(t.X, st); xi.Hi <= top.Hi>>yVal {
				return backProp(t.X, Interval{allowed.Lo >> yVal, allowed.Hi >> yVal}, st)
			}
		}
	case sym.OpDiv:
		if yConst && yVal > 0 {
			// x / c in [lo,hi] => x in [lo*c, hi*c + c - 1].
			lo, ov1 := mulOv(allowed.Lo, yVal)
			hiP, ov2 := mulOv(allowed.Hi, yVal)
			if !ov1 && !ov2 {
				hi, ov3 := addOv(hiP, yVal-1)
				if ov3 || hi > top.Hi {
					hi = top.Hi
				}
				return backProp(t.X, Interval{lo, hi}, st)
			}
		}
	case sym.OpAnd:
		if yConst && yVal == top.Hi {
			return backProp(t.X, allowed, st)
		}
		if yConst {
			// x & m in [lo,hi]: refine only the trivial hi bound x&m <= m.
			if allowed.Lo > yVal {
				return false, false
			}
		}
	case sym.OpMul:
		if yConst && yVal > 0 {
			// x * c in [lo,hi] => x in [ceil(lo/c), hi/c], but only when the
			// product cannot wrap: otherwise values of x beyond hi/c reach
			// [lo,hi] too. (The forward interval cannot tell: it answers a
			// possible wrap with the full domain, which looks like a bound.)
			xi := evalInterval(t.X, st)
			if p, ov := mulOv(xi.Hi, yVal); !ov && p <= top.Hi {
				lo := (allowed.Lo + yVal - 1) / yVal
				hi := allowed.Hi / yVal
				if lo > hi {
					return false, false
				}
				return backProp(t.X, Interval{lo, hi}, st)
			}
		}
	}
	return false, true
}

// search assigns remaining variables by backtracking. live is the node's
// live set: the constraints of q not yet entailed at st. complete is
// cleared whenever a subtree is pruned without exhausting it, so a failed
// search with *complete still true is a genuine Unsat proof.
func (s *Solver) search(q *query, st *state, live []int32, hint sym.Env, budget *int, complete *bool) (sym.Env, bool) {
	if *budget <= 0 {
		*complete = false
		return nil, false
	}
	*budget--
	s.Nodes++

	pick := pickVar(q, st)
	if pick == nil {
		// All variables fixed: verify concretely, against the whole
		// conjunction — entailed constraints included.
		env := make(sym.Env, len(q.vars))
		for _, v := range q.vars {
			env[v.ID] = st.cells[v.ID].iv.Lo
		}
		for _, c := range q.cs {
			if !sym.EvalBool(c, env) {
				return nil, false
			}
		}
		return env, true
	}
	iv := st.cells[pick.ID].iv

	// try fixes pick to val on a copy of st, settles it and searches on
	// from the live set left. done reports that this level has its
	// answer: a model, or an exhausted budget.
	try := func(val uint64) (env sym.Env, ok, done bool) {
		mark := len(s.arena)
		nd := s.fork(st)
		defer func() { s.arena = s.arena[:mark]; s.release(nd) }()
		nd.moved = s.moved[:0]
		nd.set(pick.ID, Interval{val, val})
		retired, settled := s.settle(q.cs, q.ix, nd, live, nil)
		if !settled {
			return nil, false, false
		}
		next := live
		if retired > 0 {
			s.arena = s.survivors(live, nil, s.arena)
			next = s.arena[mark:]
		}
		if env, ok := s.search(q, nd, next, hint, budget, complete); ok {
			return env, true, true
		}
		if *budget <= 0 {
			*complete = false
			return nil, false, true
		}
		return nil, false, false
	}

	// The hint goes first and alone: a negation query differs from the run
	// that produced its hint in one predicate, so the hint usually stands
	// for every variable but one, and the candidate list is only built
	// when it does not.
	hv, hinted := hint[pick.ID]
	hv = st.project(pick.ID, hv)
	hinted = hinted && iv.contains(hv)
	if hinted {
		if env, ok, done := try(hv); done {
			return env, ok
		}
	}
	mark := len(s.vals)
	defer func() { s.vals = s.vals[:mark] }()
	for _, val := range s.candidates(q, pick, st) {
		if hinted && val == hv {
			continue
		}
		if env, ok, done := try(val); done {
			return env, ok
		}
	}

	// Candidates failed; if the domain is small, enumerate it exhaustively
	// so Unsat answers are exact for narrow variables (flags, lengths).
	if iv.size() <= 256 {
		for val := iv.Lo; ; val++ {
			if env, ok, _ := try(val); ok {
				return env, true
			}
			if val == iv.Hi || *budget <= 0 {
				break
			}
		}
		return nil, false
	}
	// Large domain left unexplored: cannot claim Unsat.
	*complete = false
	return nil, false
}

// fork returns a copy of st to try a value on, reusing a finished
// trial's state; release hands it back once the trial is over.
func (s *Solver) fork(st *state) *state {
	nd := &state{}
	if n := len(s.spare); n > 0 {
		nd, s.spare = s.spare[n-1], s.spare[:n-1]
	}
	nd.cells = append(nd.cells[:0], st.cells...)
	return nd
}

func (s *Solver) release(st *state) {
	st.moved = nil
	s.spare = append(s.spare, st)
}

// pickVar returns the variable search fixes next: the most constrained
// open one, the first in declaration order on a tie; nil when every
// variable is fixed.
func pickVar(q *query, st *state) *sym.Var {
	var pick *sym.Var
	var pickSize uint64
	for _, v := range q.vars {
		iv := st.cells[v.ID].iv
		if iv.single() {
			continue
		}
		if sz := iv.size(); pick == nil || sz < pickSize {
			pick, pickSize = v, sz
		}
	}
	return pick
}

// candidates proposes trial values for v after the hint: comparison
// constants (±1) projected onto v's known bits, then domain edges and the
// midpoint, each at most once. Projection matters: with bit constraints
// like (x>>3)&1 == 1 recorded, every candidate is made consistent with
// them, so masked-field predicates (the common router shape) solve in one
// try. The constants are those of the whole conjunction (slot.consts) —
// entailed constraints included, so the trial order never depends on
// which constraints a node has dropped. The list is pushed on the
// solver's value stack; the caller pops it.
func (s *Solver) candidates(q *query, v *sym.Var, st *state) []uint64 {
	iv := st.cells[v.ID].iv
	mark := len(s.vals)
	seen := s.sorted[:0]
	add := func(val uint64) {
		val = st.project(v.ID, val)
		if !iv.contains(val) {
			return
		}
		i, dup := slices.BinarySearch(seen, val)
		if dup {
			return
		}
		seen = slices.Insert(seen, i, val)
		s.vals = append(s.vals, val)
	}
	var consts []uint64
	if v.ID < len(q.ix) {
		consts = q.ix[v.ID].consts
	}
	for _, cv := range consts {
		add(cv)
		if cv > 0 {
			add(cv - 1)
		}
		add(cv + 1)
	}
	add(iv.Lo)
	add(iv.Hi)
	add(iv.Lo + (iv.Hi-iv.Lo)/2)
	s.sorted = seen[:0]
	return s.vals[mark:]
}

// collectComparisonConsts gathers constants compared (directly or through
// one arithmetic level) against variable id.
func collectComparisonConsts(e sym.Expr, id int, out *[]uint64) {
	switch t := e.(type) {
	case *sym.Not:
		collectComparisonConsts(t.X, id, out)
	case *sym.BoolBin:
		collectComparisonConsts(t.X, id, out)
		collectComparisonConsts(t.Y, id, out)
	case *sym.Cmp:
		collectSideConsts(t.X, t.Y, id, out)
		collectSideConsts(t.Y, t.X, id, out)
	}
}

// collectSideConsts records const values from `other` when `side` mentions
// variable id (possibly through a const-op), inverting one op level.
// Every derived candidate is masked to the variable's width: inversions
// like c-k and c<<k can wrap past the domain, and an out-of-domain
// candidate is rejected by the interval check downstream — wasting the
// slot on a value whose in-domain projection would have satisfied the
// wrapped arithmetic.
func collectSideConsts(side, other sym.Expr, id int, out *[]uint64) {
	c, ok := other.(*sym.Const)
	if !ok {
		return
	}
	switch t := side.(type) {
	case *sym.Var:
		if t.ID == id {
			*out = append(*out, c.V&full(t.W).Hi)
		}
	case *sym.Bin:
		v, vok := t.X.(*sym.Var)
		k, kok := t.Y.(*sym.Const)
		if !vok || !kok || v.ID != id {
			return
		}
		m := full(v.W).Hi
		switch t.Op {
		case sym.OpAdd:
			*out = append(*out, (c.V-k.V)&m)
		case sym.OpSub:
			*out = append(*out, (c.V+k.V)&m)
		case sym.OpAnd:
			*out = append(*out, c.V&m, (c.V|^k.V)&m)
		case sym.OpShr:
			if k.V < 64 {
				*out = append(*out, (c.V<<k.V)&m)
			}
		case sym.OpShl:
			if k.V < 64 {
				*out = append(*out, (c.V>>k.V)&m)
			}
		case sym.OpDiv:
			if k.V != 0 {
				*out = append(*out, (c.V*k.V)&m)
			}
		case sym.OpMod:
			*out = append(*out, c.V&m)
		}
	}
}

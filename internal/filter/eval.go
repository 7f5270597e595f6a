package filter

import (
	"fmt"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/netaddr"
)

// Brancher and ConcreteBrancher are concolic's instrumentation seam,
// named here too because every filter caller passes one: a RunContext
// records a path constraint per `if`, ConcreteBrancher just evaluates.
// This single seam is what turns the configuration interpreter into
// explorable code.
type (
	Brancher         = concolic.Brancher
	ConcreteBrancher = concolic.ConcreteBrancher
)

// Subject is the route being filtered, lifted to concolic values. During
// normal operation every Value is concrete; during exploration the fields
// DiCE marked symbolic carry expressions.
type Subject struct {
	NetAddr   concolic.Value // 32-bit network address
	NetLen    concolic.Value // 8-bit prefix length
	PathLen   concolic.Value // 16-bit AS path length
	OriginAS  concolic.Value // 16-bit originating AS
	FirstAS   concolic.Value // 16-bit neighbor AS
	Origin    concolic.Value // 8-bit ORIGIN code
	LocalPref concolic.Value // 32-bit
	MED       concolic.Value // 32-bit

	// Communities is the route's concrete community set; membership
	// tests over it never record constraints.
	Communities []uint32

	// SymCommunity is an optional extra community slot whose 32-bit value
	// is symbolic (the routeleak scenario's input model: the community
	// crossing a policy edge becomes one engine-chosen word). W == 0
	// means the slot is absent and community tests stay fully concrete.
	// By convention the materialized message carries the slot's concrete
	// value only when it is non-zero, so the solver can express "no
	// matching community" by choosing 0.
	SymCommunity concolic.Value
}

// SubjectFromRoute lifts concrete route data into a new Subject.
func SubjectFromRoute(prefix netaddr.Prefix, attrs *bgp.Attrs) *Subject {
	s := new(Subject)
	s.Lift(prefix, attrs)
	return s
}

// Lift overwrites every field of s with the concrete data of a route, so
// one Subject can be reused for filter run after filter run without an
// allocation each. Nothing of a previous lift survives: SymCommunity is
// cleared, and Communities aliases attrs' (filters only read it).
func (s *Subject) Lift(prefix netaddr.Prefix, attrs *bgp.Attrs) {
	var lp, med uint64
	if attrs.HasLocalPref {
		lp = uint64(attrs.LocalPref)
	} else {
		lp = 100
	}
	if attrs.HasMED {
		med = uint64(attrs.MED)
	}
	*s = Subject{
		NetAddr:     concolic.Concrete(uint64(uint32(prefix.Addr())), 32),
		NetLen:      concolic.Concrete(uint64(prefix.Bits()), 8),
		PathLen:     concolic.Concrete(uint64(attrs.ASPath.Length()), 16),
		OriginAS:    concolic.Concrete(uint64(attrs.ASPath.OriginAS()), 16),
		FirstAS:     concolic.Concrete(uint64(attrs.ASPath.FirstAS()), 16),
		Origin:      concolic.Concrete(uint64(attrs.Origin), 8),
		LocalPref:   concolic.Concrete(lp, 32),
		MED:         concolic.Concrete(med, 32),
		Communities: attrs.Communities,
	}
}

// Verdict is the outcome of running a filter over a subject.
type Verdict struct {
	Disposition Disposition

	// Attribute modifications (applied only on Accept).
	SetLocalPref   *uint32
	SetMED         *uint32
	SetOrigin      *uint8
	AddCommunities []uint32

	// Stats for the harness.
	BranchesTaken int
}

// Modifies reports whether Apply would touch the attributes at all. An
// accepting verdict that does not leaves a route's export identical for
// every peer of the same kind, so a speaker can encode it once.
func (v *Verdict) Modifies() bool {
	return v.SetLocalPref != nil || v.SetMED != nil || v.SetOrigin != nil || len(v.AddCommunities) > 0
}

// Apply writes the verdict's modifications into attrs.
func (v *Verdict) Apply(attrs *bgp.Attrs) {
	if v.SetLocalPref != nil {
		attrs.HasLocalPref, attrs.LocalPref = true, *v.SetLocalPref
	}
	if v.SetMED != nil {
		attrs.HasMED, attrs.MED = true, *v.SetMED
	}
	if v.SetOrigin != nil {
		attrs.HasOrigin, attrs.Origin = true, *v.SetOrigin
	}
	for _, c := range v.AddCommunities {
		if !attrs.HasCommunity(c) {
			attrs.Communities = append(attrs.Communities, c)
		}
	}
}

// Run evaluates the filter over subj, reporting conditionals through br.
// Falling off the end rejects, like BIRD.
// (It calls runStmts itself rather than RunWithCoverage: that way it stays
// cheap enough for the compiler to inline into the router's hot path.)
func Run(f *Filter, subj *Subject, br Brancher) Verdict {
	v := Verdict{Disposition: Reject}
	runStmts(f.Stmts, subj, br, &v, nil, "")
	return v
}

// RunWithCoverage evaluates the filter like Run while tallying each `if`
// site's outcome into cov (which may be shared across runs).
func RunWithCoverage(f *Filter, subj *Subject, br Brancher, cov *Coverage) Verdict {
	v := Verdict{Disposition: Reject}
	runStmts(f.Stmts, subj, br, &v, cov, "")
	return v
}

// runStmts is the filter's one statement interpreter. It executes
// statements until a terminal action and returns true when one fired.
// With a cov it tallies each `if` under its structural site id (prefix
// plus the statement's index, e.g. "2.then.0"); without one it builds no
// ids.
func runStmts(stmts []Stmt, subj *Subject, br Brancher, v *Verdict, cov *Coverage, prefix string) bool {
	for i, s := range stmts {
		switch st := s.(type) {
		case *ActionStmt:
			v.Disposition = st.Disposition
			return true
		case *SetStmt:
			switch st.Field {
			case FieldLocalPref:
				val := uint32(st.Value)
				v.SetLocalPref = &val
			case FieldMED:
				val := uint32(st.Value)
				v.SetMED = &val
			case FieldOrigin:
				val := uint8(st.Value)
				v.SetOrigin = &val
			}
		case *AddCommunityStmt:
			v.AddCommunities = append(v.AddCommunities, bgp.MakeCommunity(st.AS, st.Value))
		case *IfStmt:
			cond := evalExpr(st.Cond, subj, nil)
			v.BranchesTaken++
			taken := br.Branch(cond)
			var arm string
			if cov != nil {
				arm = cov.record(prefix, i, st.Cond, taken)
			}
			if taken {
				if runStmts(st.Then, subj, br, v, cov, arm) {
					return true
				}
			} else if len(st.Else) > 0 {
				if runStmts(st.Else, subj, br, v, cov, arm) {
					return true
				}
			}
		}
	}
	return false
}

// evalExpr computes a boolean concolic Value for an expression. The whole
// condition of an `if` becomes one recorded branch predicate, mirroring
// how BIRD's interpreter evaluates a parsed condition then branches once.
// An operator site with a symbolic operand takes its term from its memo
// (memo.go) when it built one for the same operands before; a concrete
// one calls its operation directly, so the live node never reaches a
// memo.
// leaf answers the nodes this evaluator does not know (a LeafParser's);
// filter programs have none and pass nil.
func evalExpr(e Expr, subj *Subject, leaf func(Expr) bool) concolic.Value {
	switch t := e.(type) {
	case BoolLit:
		return concolic.Bool(bool(t))
	case *NotExpr:
		x := evalExpr(t.X, subj, leaf)
		if x.S == nil {
			return concolic.BoolNot(x)
		}
		return t.memo.apply(x, concolic.Value{}, boolNot)
	case *AndExpr:
		x, y := evalExpr(t.X, subj, leaf), evalExpr(t.Y, subj, leaf)
		if x.S == nil && y.S == nil {
			return concolic.BoolAnd(x, y)
		}
		return t.memo.apply(x, y, concolic.BoolAnd)
	case *OrExpr:
		x, y := evalExpr(t.X, subj, leaf), evalExpr(t.Y, subj, leaf)
		if x.S == nil && y.S == nil {
			return concolic.BoolOr(x, y)
		}
		return t.memo.apply(x, y, concolic.BoolOr)
	case *CmpExpr:
		lhs := fieldValue(t.Field, subj)
		rhs := concolic.Concrete(t.Value, lhs.W)
		if lhs.S == nil {
			return t.compare(lhs, rhs)
		}
		return t.memo.apply(lhs, rhs, t.compare)
	case *MatchExpr:
		if subj.NetAddr.S == nil && subj.NetLen.S == nil {
			return t.match(subj.NetAddr, subj.NetLen)
		}
		return t.memo.apply(subj.NetAddr, subj.NetLen, t.match)
	case *CommunityExpr:
		// Concrete set membership first; a hit needs no constraint.
		want := bgp.MakeCommunity(t.AS, t.Value)
		for _, c := range subj.Communities {
			if c == want {
				return concolic.Bool(true)
			}
		}
		// The symbolic slot turns the residual membership test into an
		// explorable equality: the engine can steer the slot onto (or off)
		// any community a policy tests.
		if subj.SymCommunity.W != 0 {
			return concolic.Eq(subj.SymCommunity, concolic.Concrete(uint64(want), 32))
		}
		return concolic.Bool(false)
	}
	if leaf != nil {
		return concolic.Bool(leaf(e))
	}
	// An expression node the evaluator does not know is AST drift: a new
	// node type was added without a case here. Evaluating it as `false`
	// would silently miscompile every policy using it, so fail loudly.
	panic(fmt.Sprintf("filter: unhandled expression node %T", e))
}

// boolNot is BoolNot in the two-operand form a site memo applies.
func boolNot(x, _ concolic.Value) concolic.Value { return concolic.BoolNot(x) }

// compare is the comparison's operation over the field and the constant.
func (e *CmpExpr) compare(lhs, rhs concolic.Value) concolic.Value {
	switch e.Op {
	case CmpEq:
		return concolic.Eq(lhs, rhs)
	case CmpNe:
		return concolic.Ne(lhs, rhs)
	case CmpLt:
		return concolic.Lt(lhs, rhs)
	case CmpLe:
		return concolic.Le(lhs, rhs)
	case CmpGt:
		return concolic.Gt(lhs, rhs)
	case CmpGe:
		return concolic.Ge(lhs, rhs)
	}
	panic(fmt.Sprintf("filter: unhandled comparison operator %d in %T", int(e.Op), e))
}

// match is `net ~ P{lo,hi}` over the route's address and length:
//
//	(addr & mask(P.bits)) == P.addr && lo <= len && len <= hi
func (e *MatchExpr) match(addr, length concolic.Value) concolic.Value {
	mask := concolic.Concrete(uint64(uint32(netaddr.Mask(e.Prefix.Bits()))), 32)
	net := concolic.Concrete(uint64(uint32(e.Prefix.Addr())), 32)
	inNet := concolic.Eq(concolic.And(addr, mask), net)
	geLo := concolic.Ge(length, concolic.Concrete(uint64(e.LoLen), 8))
	leHi := concolic.Le(length, concolic.Concrete(uint64(e.HiLen), 8))
	return concolic.BoolAnd(inNet, concolic.BoolAnd(geLo, leHi))
}

// EvalConcrete evaluates one expression over a fully concrete subject
// with no constraint recording. The property language (internal/prop)
// evaluates its witness and route predicates through here, so both
// languages share a single evaluator — and its unknown-node drift guards;
// leaf evaluates the nodes that language's LeafParser added (and owns
// the drift guard for them).
func EvalConcrete(e Expr, subj *Subject, leaf func(Expr) bool) bool {
	return evalExpr(e, subj, leaf).NonZero()
}

func fieldValue(f Field, subj *Subject) concolic.Value {
	switch f {
	case FieldNetLen:
		return subj.NetLen
	case FieldPathLen:
		return subj.PathLen
	case FieldOriginAS:
		return subj.OriginAS
	case FieldFirstAS:
		return subj.FirstAS
	case FieldOrigin:
		return subj.Origin
	case FieldLocalPref:
		return subj.LocalPref
	case FieldMED:
		return subj.MED
	case FieldNet:
		return subj.NetAddr
	}
	// Same drift guard as evalExpr: an unknown field must never read as
	// Concrete(0, 32), or comparisons against it silently hold/fail on a
	// value the route does not carry.
	panic(fmt.Sprintf("filter: unhandled field %v", f))
}

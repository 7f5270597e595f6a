package filter

import (
	"fmt"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/netaddr"
)

// Brancher reports conditional outcomes during filter evaluation. The
// concolic engine's RunContext implements it (recording a path constraint
// per `if`); ConcreteBrancher just evaluates. This single seam is what
// turns the configuration interpreter into explorable code.
type Brancher interface {
	Branch(cond concolic.Value) bool
}

// ConcreteBrancher evaluates conditions with no constraint recording —
// the router's zero-overhead fast path while not exploring.
type ConcreteBrancher struct{}

// Branch implements Brancher.
func (ConcreteBrancher) Branch(cond concolic.Value) bool { return cond.NonZero() }

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
func Run(f *Filter, subj *Subject, br Brancher) Verdict {
	v := Verdict{Disposition: Reject}
	runStmts(f.Stmts, subj, br, &v)
	return v
}

// runStmts executes statements until a terminal action; returns true when
// a terminal action fired.
func runStmts(stmts []Stmt, subj *Subject, br Brancher, v *Verdict) bool {
	for _, s := range stmts {
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
			if br.Branch(cond) {
				if runStmts(st.Then, subj, br, v) {
					return true
				}
			} else if len(st.Else) > 0 {
				if runStmts(st.Else, subj, br, v) {
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
// leaf answers the nodes this evaluator does not know (a LeafParser's);
// filter programs have none and pass nil.
func evalExpr(e Expr, subj *Subject, leaf func(Expr) bool) concolic.Value {
	switch t := e.(type) {
	case BoolLit:
		return concolic.Bool(bool(t))
	case *NotExpr:
		return concolic.BoolNot(evalExpr(t.X, subj, leaf))
	case *AndExpr:
		return concolic.BoolAnd(evalExpr(t.X, subj, leaf), evalExpr(t.Y, subj, leaf))
	case *OrExpr:
		return concolic.BoolOr(evalExpr(t.X, subj, leaf), evalExpr(t.Y, subj, leaf))
	case *CmpExpr:
		lhs := fieldValue(t.Field, subj)
		rhs := concolic.Concrete(t.Value, lhs.W)
		switch t.Op {
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
		panic(fmt.Sprintf("filter: unhandled comparison operator %d in %T", int(t.Op), t))
	case *MatchExpr:
		// net ~ P{lo,hi}:
		//   (addr & mask(P.bits)) == P.addr && lo <= len && len <= hi
		mask := concolic.Concrete(uint64(uint32(netaddr.Mask(t.Prefix.Bits()))), 32)
		net := concolic.Concrete(uint64(uint32(t.Prefix.Addr())), 32)
		inNet := concolic.Eq(concolic.And(subj.NetAddr, mask), net)
		geLo := concolic.Ge(subj.NetLen, concolic.Concrete(uint64(t.LoLen), 8))
		leHi := concolic.Le(subj.NetLen, concolic.Concrete(uint64(t.HiLen), 8))
		return concolic.BoolAnd(inNet, concolic.BoolAnd(geLo, leHi))
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

// Package minimize shrinks a finding's concrete witness announcement by
// delta debugging (Zeller's ddmin, specialized to the BGP UPDATE shape):
// drop AS-path entries, drop communities, zero optional attributes, and
// widen the prefix toward the coarsest still-failing span. Every
// candidate is re-validated by execution — the caller's Oracle re-injects
// it end to end (a COW shadow fabric in-process, the
// inject_witness/query_oracle/shadow_close RPC sequence distributed, whose
// first call to each agent opens its shadow) and
// accepts the step only if the original violation still fires with the
// same attribution fingerprint. The paper's value to operators is a
// concrete, actionable witness; the minimal form strips everything the
// fault does not actually depend on.
package minimize

import (
	"fmt"
	"strconv"

	"dice/internal/bgp"
	"dice/internal/netaddr"
)

// Oracle re-executes one candidate witness end to end and reports
// whether the target violation still fires with the same attribution.
// It must be deterministic: the loop's greedy accept/reject decisions —
// and with them the minimal witness — are replayed identically by the
// in-process and distributed backends only if the oracle is.
type Oracle func(candidate *bgp.Update) (bool, error)

// Options bounds the minimization loop.
type Options struct {
	// MaxCandidates bounds oracle invocations per witness (0 = 256).
	// Hitting the bound returns the best witness found so far — a
	// truncated minimization is still a valid (just not minimal) witness.
	MaxCandidates int
}

// minPrefixBits floors prefix widening: the loop never proposes the /0
// default route, which tests nothing an operator could act on.
const minPrefixBits = 1

func (o Options) maxCandidates() int {
	if o.MaxCandidates <= 0 {
		return 256
	}
	return o.MaxCandidates
}

// Size measures a witness along the dimensions minimization shrinks.
// A minimal witness is never larger than the original in any of them.
type Size struct {
	// PathASNs counts AS numbers across all AS-path segments.
	PathASNs int
	// Communities counts community words.
	Communities int
	// PrefixBits is the announced prefix's length — fewer bits is a
	// coarser (wider) span, i.e. the least specific announcement that
	// still triggers the fault.
	PrefixBits int
	// OptionalAttrs counts set optional attributes (MED, LOCAL_PREF,
	// aggregation marks, unknown transitive attrs).
	OptionalAttrs int
}

// SizeOf measures u.
func SizeOf(u *bgp.Update) Size {
	s := Size{Communities: len(u.Attrs.Communities)}
	for _, seg := range u.Attrs.ASPath {
		s.PathASNs += len(seg.ASNs)
	}
	if len(u.NLRI) > 0 {
		s.PrefixBits = u.NLRI[0].Bits()
	}
	if u.Attrs.HasMED {
		s.OptionalAttrs++
	}
	if u.Attrs.HasLocalPref {
		s.OptionalAttrs++
	}
	if u.Attrs.AtomicAggregate {
		s.OptionalAttrs++
	}
	if u.Attrs.Aggregator != nil {
		s.OptionalAttrs++
	}
	s.OptionalAttrs += len(u.Attrs.Unknown)
	return s
}

// LargerThan reports whether s exceeds o in any dimension.
func (s Size) LargerThan(o Size) bool {
	return s.PathASNs > o.PathASNs || s.Communities > o.Communities ||
		s.PrefixBits > o.PrefixBits || s.OptionalAttrs > o.OptionalAttrs
}

// Stats accounts one or more minimization runs (Add merges them; the
// federated Result carries the per-target aggregate).
type Stats struct {
	// Witnesses is the number of witnesses minimized; Shrunk counts how
	// many came out strictly smaller than they went in.
	Witnesses int
	Shrunk    int
	// Candidates counts oracle re-injections; Accepted the ones that
	// preserved the violation and became the new witness.
	Candidates int
	Accepted   int
	// Per-dimension reductions across all witnesses.
	ASNsRemoved        int
	CommunitiesRemoved int
	PrefixBitsWidened  int
	AttrsCleared       int
	// Truncated counts witnesses whose loop hit MaxCandidates before
	// reaching a fixpoint.
	Truncated int
}

// Add merges o into s.
func (s *Stats) Add(o *Stats) {
	s.Witnesses += o.Witnesses
	s.Shrunk += o.Shrunk
	s.Candidates += o.Candidates
	s.Accepted += o.Accepted
	s.ASNsRemoved += o.ASNsRemoved
	s.CommunitiesRemoved += o.CommunitiesRemoved
	s.PrefixBitsWidened += o.PrefixBitsWidened
	s.AttrsCleared += o.AttrsCleared
	s.Truncated += o.Truncated
}

func (s *Stats) String() string {
	return fmt.Sprintf("%d witness(es) minimized (%d shrunk, %d truncated): %d/%d candidate injections accepted; removed %d AS-path entries, %d communities, %d optional attrs; widened %d prefix bits",
		s.Witnesses, s.Shrunk, s.Truncated, s.Accepted, s.Candidates,
		s.ASNsRemoved, s.CommunitiesRemoved, s.AttrsCleared, s.PrefixBitsWidened)
}

// clone deep-copies a single-announcement witness.
func clone(u *bgp.Update) *bgp.Update {
	return &bgp.Update{
		Attrs: u.Attrs.Clone(),
		NLRI:  append([]netaddr.Prefix(nil), u.NLRI...),
	}
}

// Witness delta-debugs w down to a (1-)minimal announcement that the
// oracle still confirms. The input witness itself is never mutated.
// Every accepted shrink step is oracle-confirmed by construction, and
// when no step was accepted the unmodified copy of w is re-confirmed
// before returning — EXCEPT on two paths where the caller's own prior
// confirmation is the only guarantee: a witness shape the loop does not
// understand (multi-NLRI or withdraw-carrying, returned untouched) and
// a candidate budget that exhausts before the re-confirmation runs.
// Callers minimizing a witness they did not just confirm (e.g. loaded
// from disk) should CheckWitness it first. Greedy passes repeat until a
// fixpoint: one removal can unlock another (a community kept a filter
// clause alive; dropping it lets the path shrink too).
func Witness(w *bgp.Update, oracle Oracle, opts Options) (*bgp.Update, *Stats, error) {
	st := &Stats{Witnesses: 1}
	if len(w.NLRI) != 1 || len(w.Withdrawn) != 0 {
		// Witness announcements carry exactly one prefix (WitnessKey and
		// the propagation path both assume it); anything else is not a
		// shape this loop understands — hand it back untouched.
		return clone(w), st, nil
	}
	cur := clone(w)

	// try re-executes one candidate and promotes it on success. The
	// error aborts the whole loop: an oracle failure is an injection
	// failure (a broken shadow or a dead agent), not a rejection.
	budgetErr := fmt.Errorf("minimize: candidate budget exhausted")
	try := func(cand *bgp.Update) (bool, error) {
		if st.Candidates >= opts.maxCandidates() {
			return false, budgetErr
		}
		st.Candidates++
		ok, err := oracle(cand)
		if err != nil {
			return false, err
		}
		if ok {
			st.Accepted++
			cur = cand
		}
		return ok, nil
	}

	var loopErr error
pass:
	for {
		changed := false

		// AS path: try dropping one ASN at a time, rightmost first (the
		// far end of the path is the part import policies test least).
		for si := len(cur.Attrs.ASPath) - 1; si >= 0; si-- {
			for ai := len(cur.Attrs.ASPath[si].ASNs) - 1; ai >= 0; ai-- {
				cand := clone(cur)
				seg := &cand.Attrs.ASPath[si]
				seg.ASNs = append(seg.ASNs[:ai:ai], seg.ASNs[ai+1:]...)
				if len(seg.ASNs) == 0 {
					cand.Attrs.ASPath = append(cand.Attrs.ASPath[:si:si], cand.Attrs.ASPath[si+1:]...)
				}
				ok, err := try(cand)
				if err != nil {
					loopErr = err
					break pass
				}
				if ok {
					st.ASNsRemoved++
					changed = true
				}
			}
		}

		// Communities: drop one word at a time.
		for ci := len(cur.Attrs.Communities) - 1; ci >= 0; ci-- {
			cand := clone(cur)
			cand.Attrs.Communities = append(cand.Attrs.Communities[:ci:ci], cand.Attrs.Communities[ci+1:]...)
			ok, err := try(cand)
			if err != nil {
				loopErr = err
				break pass
			}
			if ok {
				st.CommunitiesRemoved++
				changed = true
			}
		}

		// Optional attributes: zero each delta the witness carries. Each
		// step returns how many attrs it cleared (0 = already zero) so
		// Stats.AttrsCleared reconciles with the SizeOf dimension — the
		// aggregate pair and the Unknown list clear more than one.
		for _, zero := range []func(*bgp.Update) int{
			func(u *bgp.Update) int {
				if !u.Attrs.HasMED {
					return 0
				}
				u.Attrs.HasMED, u.Attrs.MED = false, 0
				return 1
			},
			func(u *bgp.Update) int {
				if !u.Attrs.HasLocalPref {
					return 0
				}
				u.Attrs.HasLocalPref, u.Attrs.LocalPref = false, 0
				return 1
			},
			func(u *bgp.Update) int {
				n := 0
				if u.Attrs.AtomicAggregate {
					n++
				}
				if u.Attrs.Aggregator != nil {
					n++
				}
				u.Attrs.AtomicAggregate, u.Attrs.Aggregator = false, nil
				return n
			},
			func(u *bgp.Update) int {
				n := len(u.Attrs.Unknown)
				u.Attrs.Unknown = nil
				return n
			},
		} {
			cand := clone(cur)
			cleared := zero(cand)
			if cleared == 0 {
				continue
			}
			ok, err := try(cand)
			if err != nil {
				loopErr = err
				break pass
			}
			if ok {
				st.AttrsCleared += cleared
				changed = true
			}
		}

		// Prefix: widen toward the coarsest still-failing span. Coarsest
		// first — the first accepted length IS the coarsest, so one
		// linear scan settles the dimension for this pass.
		curBits := cur.NLRI[0].Bits()
		for bits := minPrefixBits; bits < curBits; bits++ {
			cand := clone(cur)
			cand.NLRI[0] = netaddr.PrefixFrom(cand.NLRI[0].Addr(), bits)
			ok, err := try(cand)
			if err != nil {
				loopErr = err
				break pass
			}
			if ok {
				st.PrefixBitsWidened += curBits - bits
				changed = true
				break
			}
		}

		if !changed {
			break
		}
	}
	if loopErr == budgetErr {
		st.Truncated++
		loopErr = nil
	}
	if loopErr != nil {
		return nil, st, loopErr
	}
	if st.Accepted == 0 {
		// Nothing was removable; confirm the original itself so the
		// returned witness is always oracle-validated.
		if st.Candidates < opts.maxCandidates() {
			st.Candidates++
			ok, err := oracle(cur)
			if err != nil {
				return nil, st, err
			}
			if !ok {
				return nil, st, fmt.Errorf("minimize: original witness no longer triggers its violation")
			}
		}
	}
	if SizeOf(w).LargerThan(SizeOf(cur)) {
		st.Shrunk++
	}
	return cur, st, nil
}

// Render formats a witness canonically for golden files, parity checks
// and operator reports: prefix, AS path, communities and the surviving
// optional attributes, in a fixed order.
func Render(u *bgp.Update) string {
	return string(AppendRender(nil, u))
}

// AppendRender appends Render's text for u to dst.
func AppendRender(dst []byte, u *bgp.Update) []byte {
	if len(u.NLRI) > 0 {
		dst = u.NLRI[0].AppendTo(dst)
	} else {
		dst = append(dst, "<no-nlri>"...)
	}
	dst = append(dst, " path=["...)
	first := true
	for _, seg := range u.Attrs.ASPath {
		for _, as := range seg.ASNs {
			if !first {
				dst = append(dst, ' ')
			}
			first = false
			dst = strconv.AppendUint(dst, uint64(as), 10)
		}
	}
	dst = append(dst, ']')
	if len(u.Attrs.Communities) > 0 {
		dst = append(dst, " communities=["...)
		for i, c := range u.Attrs.Communities {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = strconv.AppendUint(dst, uint64(c>>16), 10)
			dst = strconv.AppendUint(append(dst, ':'), uint64(c&0xffff), 10)
		}
		dst = append(dst, ']')
	}
	if u.Attrs.HasMED {
		dst = strconv.AppendUint(append(dst, " med="...), uint64(u.Attrs.MED), 10)
	}
	if u.Attrs.HasLocalPref {
		dst = strconv.AppendUint(append(dst, " local_pref="...), uint64(u.Attrs.LocalPref), 10)
	}
	if u.Attrs.AtomicAggregate || u.Attrs.Aggregator != nil {
		dst = append(dst, " aggregate"...)
	}
	if n := len(u.Attrs.Unknown); n > 0 {
		dst = strconv.AppendInt(append(dst, " unknown_attrs="...), int64(n), 10)
	}
	return dst
}

package concolic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"dice/internal/sym"
)

// ExploreState wire format. Exploration replicas are stateless: the
// coordinator ships a node's cross-round memory with each checkpoint and
// receives the updated memory back with the results, so warm rounds skip
// known paths and negations no matter which replica runs them — and a
// degraded node's replacement agent can be seeded with the last shipped
// state instead of starting cold.
//
// Serialization preserves invariant 2 of ARCHITECTURE.md §2: fingerprints
// key, structure verifies. Symbolic expressions are interned per process
// and cannot travel as pointers, so every record ships its fingerprint
// PLUS the canonical rendering of the constraints it stands for (the
// structural hashes behind fingerprints are process-independent, so the
// keys themselves transfer exactly). An imported record verifies
// membership by rendering the candidate's constraints and comparing
// canonically — a fingerprint collision against an imported record can
// cost a duplicate solve, never suppress a genuinely new path or
// negation, exactly the in-process contract. Rendering happens only on a
// fingerprint hit (once per skipped path, never per branch), so the O(1)
// per-branch discipline of invariant 3 is untouched.
//
// The stowed frontier does NOT travel: pending work items are resumed by
// whichever round owns them. A budget-stopped replica round therefore
// re-derives its pending queue from the shipped dedup sets — pure
// re-solving cost, no lost coverage.

// exsMagic identifies a serialized ExploreState payload.
const exsMagic = "EXS1"

// rendered-chain separators: 0x1f between constraints of one chain,
// 0x1e between the chain sections of one record. Expression renderings
// never contain control bytes.
const (
	chainSep   = "\x1f"
	sectionSep = "\x1e"
)

func renderChain(cs []sym.Expr) string {
	if len(cs) == 0 {
		return ""
	}
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, chainSep)
}

// renderPathRec canonically renders a path record: assumptions, then
// oriented branch constraints.
func renderPathRec(assumes, path []sym.Expr) string {
	return renderChain(assumes) + sectionSep + renderChain(path)
}

// renderNegRec canonically renders a negation record: assumptions, the
// query prefix path[:depth], and the negated predicate. Only the prefix
// participates in negation identity (see negRec.equals), so only the
// prefix travels.
func renderNegRec(assumes, prefix []sym.Expr, neg sym.Expr) string {
	return renderChain(assumes) + sectionSep + renderChain(prefix) + sectionSep + neg.String()
}

type wireStateRec struct {
	fp       sym.Fingerprint
	depth    uint64 // negation records only
	rendered string
}

// EncodeWire serializes the state's dedup sets (paths and attempted
// negations) into a canonical byte string: records sorted by
// (fingerprint, rendering), so equal states encode byte-identically
// regardless of exploration schedule. The pending frontier is
// intentionally omitted (see the package comment above).
func (s *ExploreState) EncodeWire() []byte {
	if s == nil {
		s = NewExploreState()
	}
	s.mu.Lock()
	paths := make([]wireStateRec, 0, s.nPaths)
	for sig, chain := range s.seen {
		for _, r := range chain {
			paths = append(paths, wireStateRec{fp: sig, rendered: r.render()})
		}
	}
	negs := make([]wireStateRec, 0, s.nNegations)
	for key, chain := range s.attempted {
		for _, r := range chain {
			negs = append(negs, wireStateRec{fp: key, depth: uint64(r.depth), rendered: r.render()})
		}
	}
	s.mu.Unlock()

	order := func(recs []wireStateRec) {
		sort.Slice(recs, func(i, j int) bool {
			a, b := recs[i], recs[j]
			if a.fp.Hi != b.fp.Hi {
				return a.fp.Hi < b.fp.Hi
			}
			if a.fp.Lo != b.fp.Lo {
				return a.fp.Lo < b.fp.Lo
			}
			return a.rendered < b.rendered
		})
	}
	order(paths)
	order(negs)

	out := []byte(exsMagic)
	out = binary.AppendUvarint(out, uint64(len(paths)))
	for _, r := range paths {
		out = appendStateRec(out, r, false)
	}
	out = binary.AppendUvarint(out, uint64(len(negs)))
	for _, r := range negs {
		out = appendStateRec(out, r, true)
	}
	return out
}

func appendStateRec(out []byte, r wireStateRec, withDepth bool) []byte {
	out = binary.BigEndian.AppendUint64(out, r.fp.Hi)
	out = binary.BigEndian.AppendUint64(out, r.fp.Lo)
	if withDepth {
		out = binary.AppendUvarint(out, r.depth)
	}
	out = binary.AppendUvarint(out, uint64(len(r.rendered)))
	return append(out, r.rendered...)
}

// DecodeExploreState reconstructs cross-round exploration memory from
// EncodeWire output. The decoder is strict: truncation at any offset,
// trailing garbage, or a malformed record is an error, never a partial
// state.
func DecodeExploreState(data []byte) (*ExploreState, error) {
	if len(data) < len(exsMagic) || string(data[:len(exsMagic)]) != exsMagic {
		return nil, errors.New("concolic: explore-state payload lacks EXS1 magic")
	}
	d := stateDecoder{buf: data[len(exsMagic):]}
	st := NewExploreState()

	nPaths := d.uvarint("path count")
	for i := uint64(0); i < nPaths && d.err == nil; i++ {
		fp, _, rendered := d.rec(false)
		if d.err != nil {
			break
		}
		chain := st.seen[fp]
		if containsRendered(chain, rendered) {
			continue
		}
		st.seen[fp] = append(chain, pathRec{rendered: rendered})
		st.nPaths++
	}
	nNegs := d.uvarint("negation count")
	for i := uint64(0); i < nNegs && d.err == nil; i++ {
		fp, depth, rendered := d.rec(true)
		if d.err != nil {
			break
		}
		chain := st.attempted[fp]
		dup := false
		for _, r := range chain {
			if r.depth == int(depth) && r.rendered != "" && r.rendered == rendered {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		st.attempted[fp] = append(chain, negRec{depth: int(depth), rendered: rendered})
		st.nNegations++
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("concolic: %d trailing bytes after explore-state payload", len(d.buf))
	}
	return st, nil
}

func containsRendered(chain []pathRec, rendered string) bool {
	for _, r := range chain {
		if r.rendered != "" && r.rendered == rendered {
			return true
		}
	}
	return false
}

type stateDecoder struct {
	buf []byte
	err error
}

func (d *stateDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("concolic: truncated explore-state %s", what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *stateDecoder) rec(withDepth bool) (fp sym.Fingerprint, depth uint64, rendered string) {
	if d.err != nil {
		return
	}
	if len(d.buf) < 16 {
		d.err = errors.New("concolic: truncated explore-state fingerprint")
		return
	}
	fp.Hi = binary.BigEndian.Uint64(d.buf)
	fp.Lo = binary.BigEndian.Uint64(d.buf[8:])
	d.buf = d.buf[16:]
	if withDepth {
		depth = d.uvarint("negation depth")
	}
	n := d.uvarint("record length")
	if d.err != nil {
		return
	}
	if uint64(len(d.buf)) < n {
		d.err = errors.New("concolic: truncated explore-state record")
		return
	}
	rendered = string(d.buf[:n])
	d.buf = d.buf[n:]
	if !strings.Contains(rendered, sectionSep) {
		d.err = errors.New("concolic: explore-state record lacks a section separator")
		return
	}
	return
}

package concolic

import (
	"errors"
	"sort"
	"strings"

	"dice/internal/codec"
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
//
// The payload is the magic "EXS1", then the path records and the
// negation records, each list a uvarint count followed by its records: a
// 16-octet big-endian fingerprint, a uvarint depth (negation records
// only) and the length-prefixed rendering. The layout is stated once, in
// wireState over a codec.C, and serves both directions: EncodeWire
// gathers and sorts the records, then runs it as an encoder;
// DecodeExploreState runs it as a strict decoder, then inserts the
// records. A replica sends these bytes back, so the decoder is a trust
// boundary (FuzzDecodeExploreState).

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

// wireStateRec is one dedup record on the wire: its fingerprint, the
// query depth (negation records only) and its canonical rendering.
type wireStateRec struct {
	fp       sym.Fingerprint
	depth    int
	rendered string
}

// wire is a record's layout, both directions.
func (r *wireStateRec) wire(c *codec.C, withDepth bool) {
	c.U64(&r.fp.Hi)
	c.U64(&r.fp.Lo)
	if withDepth {
		c.Uint(&r.depth)
	}
	c.Str(&r.rendered)
	if c.Decoding() && !strings.Contains(r.rendered, sectionSep) {
		c.Fail("record lacks a section separator")
	}
}

// wireState is the payload's layout, both directions: the magic, the
// path records, the negation records. A record costs at least its 16
// fingerprint octets and a length octet, and a negation record a depth
// octet more.
func wireState(c *codec.C, paths, negs *[]wireStateRec) {
	magic := []byte(exsMagic)
	c.Fixed(magic)
	if string(magic) != exsMagic {
		c.Fail("payload lacks %s magic", exsMagic)
	}
	codec.List(c, paths, 17, func(r *wireStateRec) { r.wire(c, false) })
	codec.List(c, negs, 18, func(r *wireStateRec) { r.wire(c, true) })
}

// errExploreState is the class of every DecodeExploreState error.
var errExploreState = errors.New("concolic: malformed explore-state payload")

// EncodeWire serializes the state's dedup sets (paths and attempted
// negations) into a canonical byte string: records sorted by
// (fingerprint, rendering, depth), so equal states encode byte-identically
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
			negs = append(negs, wireStateRec{fp: key, depth: r.depth, rendered: r.render()})
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
			if a.rendered != b.rendered {
				return a.rendered < b.rendered
			}
			return a.depth < b.depth
		})
	}
	order(paths)
	order(negs)

	c := codec.Encoder(nil)
	wireState(&c, &paths, &negs)
	return c.Buf()
}

// DecodeExploreState reconstructs cross-round exploration memory from
// EncodeWire output. The decoder is strict: truncation at any offset,
// trailing garbage, or a malformed record is an error, never a partial
// state. Duplicate records collapse into one.
func DecodeExploreState(data []byte) (*ExploreState, error) {
	var paths, negs []wireStateRec
	c := codec.Decoder(data, errExploreState)
	wireState(&c, &paths, &negs)
	if err := c.Finish(); err != nil {
		return nil, err
	}
	st := NewExploreState()
	for _, r := range paths {
		chain := st.seen[r.fp]
		if containsRendered(chain, r.rendered) {
			continue
		}
		st.seen[r.fp] = append(chain, pathRec{rendered: r.rendered})
		st.nPaths++
	}
	for _, r := range negs {
		chain := st.attempted[r.fp]
		if containsNeg(chain, r.depth, r.rendered) {
			continue
		}
		st.attempted[r.fp] = append(chain, negRec{depth: r.depth, rendered: r.rendered})
		st.nNegations++
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

func containsNeg(chain []negRec, depth int, rendered string) bool {
	for _, r := range chain {
		if r.depth == depth && r.rendered != "" && r.rendered == rendered {
			return true
		}
	}
	return false
}

package bgp

// AttrTable stores each distinct attribute set once, keyed by its
// attribute block exactly as an UPDATE carries it (the bytes AttrBlock
// frames), the way BIRD's route attribute cache (rta_lookup) does: a
// block already in the table is not decoded again. Every set it hands
// out shares its slices with the stored one, so a shared set is
// immutable: code that changes a set's attributes works on a shallow
// copy and replaces, never writes into, the slices it got (ASPath.Prepend
// copies; an added community is appended to a clipped list). A table
// serves one goroutine. The zero table (nil) stores nothing and decodes
// every block afresh.
type AttrTable struct {
	sets map[string]Attrs
}

// NewAttrTable returns an empty table.
func NewAttrTable() *AttrTable { return &AttrTable{sets: map[string]Attrs{}} }

// decode returns the set block encodes, decoding it only on a miss. A
// block that fails to decode is not stored.
func (t *AttrTable) decode(block []byte) (Attrs, error) {
	if t == nil {
		return decodeAttrs(block)
	}
	if a, ok := t.sets[string(block)]; ok {
		return a, nil
	}
	a, err := decodeAttrs(block)
	if err == nil {
		t.sets[string(block)] = a
	}
	return a, err
}

// Each calls fn with every stored set and the block it was decoded from,
// in no particular order. It exists for the check that no code path
// writes a shared set (core's TestSharedAttrSetsStayImmutable re-decodes
// every block and compares); sessions look sets up through a Decoder.
func (t *AttrTable) Each(fn func(block []byte, a Attrs)) {
	for k, a := range t.sets {
		fn([]byte(k), a)
	}
}

// Decoder is where sessions decode the UPDATEs they receive
// (Session.SetDecoder): into one Update it reuses, so the UPDATE a
// session hands SessionHooks.OnUpdate is valid only until that call
// returns, and an owner that keeps it keeps the wire bytes OnUpdate
// gets with it. Attribute sets go
// through Table when it is set. The sessions that share a Decoder must
// receive one message at a time: one speaker's, or every witness shadow
// of one set.
type Decoder struct {
	Table *AttrTable
	upd   Update
}

// update decodes an UPDATE body into the decoder's Update.
func (d *Decoder) update(body []byte) (*Update, error) {
	if err := d.upd.decode(body, d.Table); err != nil {
		return nil, err
	}
	return &d.upd, nil
}

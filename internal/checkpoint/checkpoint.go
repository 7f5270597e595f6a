// Package checkpoint provides fork()-style copy-on-write snapshots of
// process state with page-granular accounting.
//
// The paper implements checkpointing "by simply using the fork system
// call", which gives (a) cheap creation of many clones and (b) a small
// memory footprint, because clones share all untouched pages with the
// parent. This package reproduces both properties for in-process Go state:
// a snapshot ingests the node's serialized state, splits it into pages and
// stores them content-addressed with reference counts. Pages whose content
// is unchanged between two snapshots are physically shared — exactly the
// set of pages fork's COW would share — so the §4.1 unique-page and
// clone-overhead measurements are computed from real structural sharing,
// not estimates.
//
// A Snapshot is also the one off-node form of a checkpoint. Its page
// identity — where a page starts and what it is called — is decided once,
// by the TakeChunks that ingested it, and every later hop keeps it: a
// sender ships the ordered Keys plus whichever Page bodies the receiver
// lacks, and the receiver's own Store either assembles the same snapshot
// from them or names the keys it is missing. Because page boundaries
// follow the node's stable regions rather than byte offsets, the pages a
// receiver already holds stay valid when the node's state grows.
package checkpoint

import (
	"crypto/sha256"
	"fmt"
	"sync"
)

// DefaultPageSize matches the 4 KiB pages of the paper's Linux testbed.
const DefaultPageSize = 4096

// Key is a page's content address (SHA-256 of its bytes): the page's
// identity in every store and on the wire.
type Key [sha256.Size]byte

type page struct {
	data []byte
	refs int
}

// Store is a deduplicating, reference-counted page store shared by all
// snapshots of a node. It is safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	pageSize int
	pages    map[Key]*page
	resident int // bytes physically stored

	// lifetime counters
	ingested uint64 // pages ingested across all snapshots
	shared   uint64 // of those, pages that already existed (COW hits)
}

// NewStore creates a page store. pageSize <= 0 selects DefaultPageSize.
func NewStore(pageSize int) *Store {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Store{pageSize: pageSize, pages: make(map[Key]*page)}
}

// PageSize returns the store's page size in bytes.
func (st *Store) PageSize() int { return st.pageSize }

// Snapshot is an immutable checkpoint of a node's state: an ordered list
// of page references plus the exact byte length.
type Snapshot struct {
	store *Store
	keys  []Key
	size  int
	label string // names the snapshot in the evicted-page panic

	releaseOnce sync.Once
}

// Take ingests state into the store and returns its snapshot. Pages whose
// content already exists in the store (from the parent or an earlier
// snapshot) are shared rather than copied.
func (st *Store) Take(label string, state []byte) *Snapshot {
	return st.TakeChunks(label, [][]byte{state})
}

// TakeChunks ingests state presented as independently-paged chunks. Each
// chunk starts on a fresh page, so a mutation inside one chunk leaves the
// pages of every other chunk byte-identical — modelling a heap where
// objects live at stable addresses, which is what makes fork()'s COW
// sharing effective. Callers serialize each stable region (e.g. a RIB
// address-range bucket) as its own chunk.
func (st *Store) TakeChunks(label string, chunks [][]byte) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()

	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	snap := &Snapshot{
		store: st,
		keys:  make([]Key, 0, total/st.pageSize+len(chunks)),
		label: label,
	}
	for _, state := range chunks {
		for off := 0; off < len(state); off += st.pageSize {
			end := off + st.pageSize
			if end > len(state) {
				end = len(state)
			}
			st.hold(snap, sha256.Sum256(state[off:end]), state[off:end])
		}
	}
	return snap
}

// hold appends the page named key to snap, taking one reference on it;
// data is copied in when the store does not have the page yet. Callers
// hold st.mu.
func (st *Store) hold(snap *Snapshot, key Key, data []byte) {
	st.ingested++
	p, ok := st.pages[key]
	if ok {
		p.refs++
		st.shared++
	} else {
		p = &page{data: append([]byte(nil), data...), refs: 1}
		st.pages[key] = p
		st.resident += len(data)
	}
	snap.keys = append(snap.keys, key)
	snap.size += len(p.data)
}

// Assemble is TakeChunks on the receiving side of a shipment: keys is a
// snapshot's ordered manifest (Snapshot.Keys) and pages are the page
// bodies the sender chose to ship, in any order — a page is identified by
// its content, so no index travels with it. When every key resolves,
// against the store or against pages, the result is a snapshot equal to
// the sender's, holding references like any other. Otherwise nothing is
// stored and missing names the unresolved keys, each once, in manifest
// order, for the sender to ship. Shipped pages the manifest does not name
// are dropped.
func (st *Store) Assemble(label string, keys []Key, pages [][]byte) (snap *Snapshot, missing []Key) {
	shipped := make(map[Key][]byte, len(pages))
	for _, pg := range pages {
		shipped[sha256.Sum256(pg)] = pg
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var named map[Key]bool
	for _, k := range keys {
		_, stored := st.pages[k]
		_, sent := shipped[k]
		if stored || sent || named[k] {
			continue
		}
		if named == nil {
			named = make(map[Key]bool)
		}
		named[k] = true
		missing = append(missing, k)
	}
	if len(missing) > 0 {
		return nil, missing
	}
	snap = &Snapshot{store: st, keys: make([]Key, 0, len(keys)), label: label}
	for _, k := range keys {
		st.hold(snap, k, shipped[k])
	}
	return snap, nil
}

// Bytes reassembles the checkpointed state.
func (s *Snapshot) Bytes() []byte {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	out := make([]byte, 0, s.size)
	for i := range s.keys {
		out = append(out, s.page(i)...)
	}
	return out
}

// Page returns the body of the snapshot's i-th page. The bytes are the
// store's own; callers must not modify them.
func (s *Snapshot) Page(i int) []byte {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	return s.page(i)
}

// page resolves the i-th key; callers hold the store's lock.
func (s *Snapshot) page(i int) []byte {
	p, ok := s.store.pages[s.keys[i]]
	if !ok {
		panic(fmt.Sprintf("checkpoint: snapshot %q references evicted page", s.label))
	}
	return p.data
}

// Release drops the snapshot's page references; pages reaching zero
// references are evicted. Safe to call more than once.
func (s *Snapshot) Release() {
	s.releaseOnce.Do(func() {
		st := s.store
		st.mu.Lock()
		defer st.mu.Unlock()
		for _, k := range s.keys {
			if p, ok := st.pages[k]; ok {
				p.refs--
				if p.refs <= 0 {
					delete(st.pages, k)
					st.resident -= len(p.data)
				}
			}
		}
	})
}

// Pages returns the number of pages in the snapshot.
func (s *Snapshot) Pages() int { return len(s.keys) }

// Size returns the logical byte size of the snapshot.
func (s *Snapshot) Size() int { return s.size }

// Keys returns the snapshot's manifest: its pages' keys in state order
// (a page that occurs twice is listed twice). Together with the page
// bodies it is everything Store.Assemble needs. The slice is the
// snapshot's own; callers must not modify it.
func (s *Snapshot) Keys() []Key { return s.keys }

// SharedPages counts pages of s that are physically shared with o
// (identical content at any position). This is the set fork's COW would
// leave shared between the two processes.
func (s *Snapshot) SharedPages(o *Snapshot) int {
	other := make(map[Key]int, len(o.keys))
	for _, k := range o.keys {
		other[k]++
	}
	shared := 0
	for _, k := range s.keys {
		if other[k] > 0 {
			other[k]--
			shared++
		}
	}
	return shared
}

// UniquePages counts pages of s not shared with o — the pages the
// checkpoint privately owns (the paper's "unique memory pages" metric).
func (s *Snapshot) UniquePages(o *Snapshot) int {
	return len(s.keys) - s.SharedPages(o)
}

// UniqueFraction is UniquePages over total pages of s, in [0,1].
func (s *Snapshot) UniqueFraction(o *Snapshot) float64 {
	if len(s.keys) == 0 {
		return 0
	}
	return float64(s.UniquePages(o)) / float64(len(s.keys))
}

// OverheadFraction reports how many additional pages s consumes relative
// to base: unique(s, base) / pages(base). This is the paper's
// "clones consume on average 36.93% pages more" metric.
func (s *Snapshot) OverheadFraction(base *Snapshot) float64 {
	if base.Pages() == 0 {
		return 0
	}
	return float64(s.UniquePages(base)) / float64(base.Pages())
}

// StoreStats reports store-wide accounting.
type StoreStats struct {
	ResidentPages int    // distinct pages currently stored
	ResidentBytes int    // bytes physically stored
	Ingested      uint64 // pages ingested over the store's lifetime
	SharedHits    uint64 // ingested pages that were deduplicated
}

// Stats returns current store accounting.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StoreStats{
		ResidentPages: len(st.pages),
		ResidentBytes: st.resident,
		Ingested:      st.ingested,
		SharedHits:    st.shared,
	}
}

package checkpoint

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	st := NewStore(64)
	data := []byte("hello checkpoint world, this is state that spans multiple pages for sure")
	s := st.Take("a", data)
	if got := s.Bytes(); !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
	if s.Size() != len(data) {
		t.Fatalf("size = %d, want %d", s.Size(), len(data))
	}
}

func TestEmptyState(t *testing.T) {
	st := NewStore(64)
	s := st.Take("empty", nil)
	if s.Pages() != 0 || len(s.Bytes()) != 0 {
		t.Fatal("empty snapshot should have no pages")
	}
	if s.UniqueFraction(s) != 0 {
		t.Fatal("unique fraction of empty snapshot should be 0")
	}
}

func TestExactPageBoundary(t *testing.T) {
	st := NewStore(16)
	data := make([]byte, 48) // exactly 3 pages
	for i := range data {
		data[i] = byte(i)
	}
	s := st.Take("b", data)
	if s.Pages() != 3 {
		t.Fatalf("pages = %d, want 3", s.Pages())
	}
	if !bytes.Equal(s.Bytes(), data) {
		t.Fatal("round trip mismatch")
	}
}

func TestSharingBetweenIdenticalSnapshots(t *testing.T) {
	st := NewStore(16)
	data := make([]byte, 160)
	a := st.Take("a", data)
	b := st.Take("b", data)
	if got := a.SharedPages(b); got != 10 {
		t.Fatalf("shared = %d, want 10", got)
	}
	if a.UniquePages(b) != 0 {
		t.Fatal("identical snapshots must share everything")
	}
	// The store must hold the pages only once. All-zero pages of the same
	// content collapse into a single resident page.
	if stats := st.Stats(); stats.ResidentPages != 1 {
		t.Fatalf("resident pages = %d, want 1 (all pages identical)", stats.ResidentPages)
	}
}

func TestPartialDivergence(t *testing.T) {
	st := NewStore(16)
	base := make([]byte, 160)
	for i := range base {
		base[i] = byte(i) // distinct pages
	}
	a := st.Take("parent", base)

	// The clone dirties 2 of 10 pages (like exploration touching state).
	mod := make([]byte, len(base))
	copy(mod, base)
	mod[0] ^= 0xff  // page 0
	mod[40] ^= 0xff // page 2
	b := st.Take("clone", mod)

	if got := b.UniquePages(a); got != 2 {
		t.Fatalf("unique = %d, want 2", got)
	}
	if got := b.SharedPages(a); got != 8 {
		t.Fatalf("shared = %d, want 8", got)
	}
	if f := b.UniqueFraction(a); f != 0.2 {
		t.Fatalf("unique fraction = %v, want 0.2", f)
	}
	if f := b.OverheadFraction(a); f != 0.2 {
		t.Fatalf("overhead fraction = %v, want 0.2", f)
	}
}

func TestReleaseEvictsPages(t *testing.T) {
	st := NewStore(16)
	uniq := func(tag byte, n int) []byte {
		d := make([]byte, n)
		for i := range d {
			d[i] = tag ^ byte(i)
		}
		return d
	}
	a := st.Take("a", uniq(1, 64))
	b := st.Take("b", uniq(2, 64))
	before := st.Stats().ResidentPages
	a.Release()
	after := st.Stats().ResidentPages
	if after >= before {
		t.Fatalf("release did not evict pages: %d -> %d", before, after)
	}
	// b must still be readable.
	if len(b.Bytes()) != 64 {
		t.Fatal("surviving snapshot corrupted by release")
	}
	// Double release is safe.
	a.Release()
}

func TestReleaseKeepsSharedPages(t *testing.T) {
	st := NewStore(16)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	a := st.Take("a", data)
	b := st.Take("b", data)
	a.Release()
	if !bytes.Equal(b.Bytes(), data) {
		t.Fatal("shared pages evicted while still referenced")
	}
	b.Release()
	if st.Stats().ResidentPages != 0 {
		t.Fatal("store should be empty after all releases")
	}
}

func TestStoreStatsSharing(t *testing.T) {
	st := NewStore(16)
	data := make([]byte, 160)
	for i := range data {
		data[i] = byte(i)
	}
	st.Take("a", data)
	st.Take("b", data)
	stats := st.Stats()
	if stats.Ingested != 20 {
		t.Fatalf("ingested = %d, want 20", stats.Ingested)
	}
	if stats.SharedHits != 10 {
		t.Fatalf("shared hits = %d, want 10", stats.SharedHits)
	}
}

func TestManyClonesSmallFootprint(t *testing.T) {
	// The fork property the paper relies on: "create a large number of
	// checkpoints with a small memory footprint".
	st := NewStore(64)
	base := make([]byte, 64*100) // 100 pages
	for i := range base {
		base[i] = byte(i * 7)
	}
	parent := st.Take("parent", base)
	baseline := st.Stats().ResidentBytes

	clones := make([]*Snapshot, 50)
	for i := range clones {
		mod := make([]byte, len(base))
		copy(mod, base)
		mod[i*64] ^= 0xff // each clone dirties exactly one distinct page
		clones[i] = st.Take(fmt.Sprintf("clone-%d", i), mod)
	}
	grown := st.Stats().ResidentBytes - baseline
	// 50 clones x 1 private page each = 50 pages, not 50 x 100.
	if grown > 51*64 {
		t.Fatalf("store grew %d bytes; COW sharing broken", grown)
	}
	for _, c := range clones {
		if c.UniquePages(parent) != 1 {
			t.Fatalf("clone unique pages = %d, want 1", c.UniquePages(parent))
		}
	}
}

func TestDefaultPageSize(t *testing.T) {
	st := NewStore(0)
	if st.PageSize() != DefaultPageSize {
		t.Fatalf("page size = %d", st.PageSize())
	}
}

// TestReleaseEvictsExactlyUnsharedPages: reference counts are the whole
// eviction policy — releasing a snapshot frees the pages only it held, to
// the byte, and leaves every page another snapshot names.
func TestReleaseEvictsExactlyUnsharedPages(t *testing.T) {
	st := NewStore(16)
	shared := bytes.Repeat([]byte("shared-page-----"), 3)
	a := st.TakeChunks("a", [][]byte{shared, []byte("only a, page one"), []byte("only a, short")})
	b := st.TakeChunks("b", [][]byte{shared, []byte("only b")})
	before := st.Stats()
	a.Release()
	after := st.Stats()
	if got := before.ResidentPages - after.ResidentPages; got != 2 {
		t.Errorf("release evicted %d pages, want a's 2 private ones", got)
	}
	if got, want := before.ResidentBytes-after.ResidentBytes, len("only a, page one")+len("only a, short"); got != want {
		t.Errorf("release freed %d bytes, want %d", got, want)
	}
	if !bytes.Equal(b.Bytes(), append(append([]byte{}, shared...), "only b"...)) {
		t.Error("surviving snapshot lost a page it shares with the released one")
	}
	b.Release()
	if st := st.Stats(); st.ResidentPages != 0 || st.ResidentBytes != 0 {
		t.Errorf("store not empty after every release: %+v", st)
	}
}

// Property: round trip through the store is lossless for arbitrary state.
func TestRoundTripProperty(t *testing.T) {
	st := NewStore(32)
	f := func(data []byte) bool {
		s := st.Take("p", data)
		ok := bytes.Equal(s.Bytes(), data)
		s.Release()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: shared + unique always equals total pages, and sharing is
// bounded by the smaller snapshot.
func TestSharingAccountingProperty(t *testing.T) {
	st := NewStore(8)
	f := func(a, b []byte) bool {
		sa := st.Take("a", a)
		sb := st.Take("b", b)
		defer sa.Release()
		defer sb.Release()
		sh := sa.SharedPages(sb)
		if sh+sa.UniquePages(sb) != sa.Pages() {
			return false
		}
		if sh > sb.Pages() {
			return false
		}
		// Symmetry of the shared count.
		return sh == sb.SharedPages(sa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTakeSnapshot64KB(b *testing.B) {
	st := NewStore(DefaultPageSize)
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := st.Take("bench", data)
		s.Release()
	}
}

func BenchmarkCloneAfterSmallDirty(b *testing.B) {
	st := NewStore(DefaultPageSize)
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 13)
	}
	parent := st.Take("parent", data)
	defer parent.Release()
	mod := make([]byte, len(data))
	copy(mod, data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod[i%len(mod)] ^= 0xff
		s := st.Take("clone", mod)
		s.Release()
		mod[i%len(mod)] ^= 0xff
	}
}

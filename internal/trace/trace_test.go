package trace

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"dice/internal/bgp"
	"dice/internal/netaddr"
)

func genSmall(t *testing.T) []Record {
	t.Helper()
	cfg := DefaultGenConfig()
	cfg.TableSize = 500
	cfg.UpdateCount = 200
	cfg.Duration = time.Minute
	return Generate(cfg)
}

func TestGenerateShape(t *testing.T) {
	recs := genSmall(t)
	dump, updates := Split(recs)
	if len(dump) != 500 {
		t.Fatalf("dump size = %d", len(dump))
	}
	if len(updates) != 200 {
		t.Fatalf("updates = %d", len(updates))
	}
	// Dump prefixes are distinct.
	seen := map[netaddr.Prefix]bool{}
	for _, r := range dump {
		if seen[r.Prefix] {
			t.Fatalf("duplicate dump prefix %v", r.Prefix)
		}
		seen[r.Prefix] = true
		if r.At != 0 || r.Kind != KindDump {
			t.Fatalf("bad dump record: %+v", r)
		}
		if !r.Attrs.HasOrigin || !r.Attrs.HasNextHop || r.Attrs.ASPath == nil {
			t.Fatalf("dump record missing mandatory attrs: %+v", r.Attrs)
		}
		if r.Attrs.ASPath.FirstAS() != 65003 {
			t.Fatalf("path must start at peer AS: %v", r.Attrs.ASPath)
		}
	}
	// Updates are time-ordered within the window.
	var last time.Duration
	withdraws := 0
	for _, r := range updates {
		if r.At < last {
			t.Fatal("updates out of order")
		}
		last = r.At
		if r.At > time.Minute {
			t.Fatalf("update at %v beyond duration", r.At)
		}
		if r.Kind == KindWithdraw {
			withdraws++
		}
	}
	if withdraws == 0 || withdraws > 60 {
		t.Fatalf("withdraw count suspicious: %d", withdraws)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t)
	b := genSmall(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must generate identical traces")
	}
	cfg := DefaultGenConfig()
	cfg.TableSize, cfg.UpdateCount, cfg.Duration = 500, 200, time.Minute
	cfg.Seed = 2
	c := Generate(cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds must differ")
	}
}

func TestPrefixLengthDistribution(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.TableSize = 20000
	cfg.UpdateCount = 0
	recs := Generate(cfg)
	counts := map[int]int{}
	for _, r := range recs {
		counts[r.Prefix.Bits()]++
	}
	// /24 should dominate (~40%+), like the real table.
	if frac := float64(counts[24]) / float64(len(recs)); frac < 0.35 || frac > 0.75 {
		t.Fatalf("/24 fraction = %v, want ~0.42", frac)
	}
	// No prefixes longer than /24 or shorter than /8 in the dump.
	for bits := range counts {
		if bits < 8 || bits > 24 {
			t.Fatalf("unexpected prefix length %d", bits)
		}
	}
}

func TestRoutableSpace(t *testing.T) {
	recs := genSmall(t)
	for _, r := range recs {
		first := byte(uint32(r.Prefix.Addr()) >> 24)
		if first == 0 || first == 127 || first >= 224 {
			t.Fatalf("prefix %v outside routable space", r.Prefix)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	recs := genSmall(t)
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("count: %d vs %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].At != recs[i].At || got[i].Kind != recs[i].Kind || got[i].Prefix != recs[i].Prefix {
			t.Fatalf("record %d header mismatch: %+v vs %+v", i, got[i], recs[i])
		}
		if got[i].Kind != KindWithdraw {
			a, b := got[i].Attrs, recs[i].Attrs
			if a.Origin != b.Origin || a.ASPath.String() != b.ASPath.String() ||
				a.NextHop != b.NextHop || a.HasMED != b.HasMED || a.MED != b.MED {
				t.Fatalf("record %d attrs mismatch:\n%+v\n%+v", i, a, b)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Correct magic, truncated body.
	var buf bytes.Buffer
	Write(&buf, genSmall(t))
	trunc := buf.Bytes()[:40]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestToUpdate(t *testing.T) {
	recs := genSmall(t)
	_, updates := Split(recs)
	for _, r := range updates {
		u := ToUpdate(r)
		if r.Kind == KindWithdraw {
			if len(u.Withdrawn) != 1 || len(u.NLRI) != 0 {
				t.Fatalf("withdraw update wrong: %+v", u)
			}
		} else {
			if len(u.NLRI) != 1 || u.NLRI[0] != r.Prefix {
				t.Fatalf("announce update wrong: %+v", u)
			}
			// The produced update must be wire-valid.
			if _, err := bgp.Encode(u); err != nil {
				t.Fatalf("update not encodable: %v", err)
			}
		}
	}
}

func BenchmarkGenerate10k(b *testing.B) {
	cfg := DefaultGenConfig()
	cfg.TableSize = 10000
	cfg.UpdateCount = 1000
	for i := 0; i < b.N; i++ {
		if got := Generate(cfg); len(got) != 11000 {
			b.Fatal("bad size")
		}
	}
}

func BenchmarkWriteRead(b *testing.B) {
	cfg := DefaultGenConfig()
	cfg.TableSize = 1000
	cfg.UpdateCount = 100
	recs := Generate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			b.Fatal(err)
		}
		if _, err := Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

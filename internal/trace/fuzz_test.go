package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dice/internal/bgp"
	"dice/internal/codec"
)

// encodeWith runs one piece of the layout as an encoder.
func encodeWith(piece func(c *codec.C)) []byte {
	c := codec.Encoder(nil)
	piece(&c)
	return c.Buf()
}

// fuzzSeeds covers every structural region of the format: a valid
// two-record file, truncations at each boundary, and corruptions of the
// fields Read validates (magic, count, kind, prefix, trailing bytes).
// Offsets come from the layout: a record is its encoding, the file
// header is what precedes the records, and a dump record ends in its
// prefix and attribute block.
func fuzzSeeds(t interface{ Helper() }) [][]byte {
	t.Helper()
	cfg := DefaultGenConfig()
	cfg.TableSize = 1
	cfg.UpdateCount = 1
	cfg.Duration = time.Second
	recs := Generate(cfg)
	var valid bytes.Buffer
	if err := Write(&valid, recs); err != nil {
		panic(err)
	}
	v := valid.Bytes()
	rec0 := encodeWith(func(c *codec.C) { recs[0].wire(c) })
	rec1 := encodeWith(func(c *codec.C) { recs[1].wire(c) })
	block0 := encodeWith(func(c *codec.C) { bgp.AttrBlock(c, &recs[0].Attrs) })
	hdr := len(v) - len(rec0) - len(rec1)
	bitsAt := hdr + len(rec0) - len(block0) - 1 // record 0's prefix length octet

	corrupt := func(at int, b byte) []byte {
		out := append([]byte(nil), v...)
		out[at] = b
		return out
	}
	return [][]byte{
		v,
		{},
		v[:4],                                // truncated magic
		v[:len(magic)],                       // magic only, no count
		v[:hdr],                              // count but no records
		v[:hdr+len(rec0)/2],                  // truncated record 0
		v[:len(v)-1],                         // truncated final record
		corrupt(0, v[0]^0xff),                // bad magic
		corrupt(hdr, 0x7f),                   // bad kind
		corrupt(bitsAt, 99),                  // prefix length over 32
		corrupt(bitsAt-1, 0xff),              // host bits set in record 0's prefix
		append(append([]byte(nil), v...), 0), // trailing byte
		append(append(append([]byte(nil), v[:len(magic)]...), 0x80|v[len(magic)], 0), v[hdr:]...), // non-minimal count
		append(append([]byte(nil), v[:len(magic)]...), 0xff, 0xff, 0xff, 0xff, 0x0f),              // huge count
	}
}

// FuzzTraceRead: whatever bytes arrive, Read must either parse them or
// return an error wrapping ErrBadFormat — never panic, and never spin.
// Whatever it accepts, Write must reproduce byte for byte (the format
// has one encoding per trace).
func FuzzTraceRead(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("Read error is not ErrBadFormat: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, records); err != nil {
			t.Fatalf("re-encode of parsed records failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted input re-encodes differently:\n read: %x\nwrote: %x", data, buf.Bytes())
		}
	})
}

// normalize folds nil and empty slices together for DeepEqual.
func normalize(rs []Record) []Record {
	if len(rs) == 0 {
		return nil
	}
	return rs
}

// TestWriteReadRoundTripProperty: for a spread of generator shapes and
// seeds, Write→Read returns the records unchanged — the property the
// replay harness stands on (a committed trace replays exactly what the
// recorder saw).
func TestWriteReadRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 25; i++ {
		cfg := GenConfig{
			Seed:             rng.Int63(),
			TableSize:        rng.Intn(80),
			UpdateCount:      rng.Intn(60),
			Duration:         time.Duration(1+rng.Intn(300)) * time.Second,
			WithdrawFraction: rng.Float64() * 0.5,
			PeerAS:           uint16(1 + rng.Intn(65000)),
			NextHop:          DefaultGenConfig().NextHop,
		}
		records := Generate(cfg)
		var buf bytes.Buffer
		if err := Write(&buf, records); err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(records)) {
			t.Fatalf("round trip changed records for cfg %+v", cfg)
		}
	}
}

// TestReadRejectsSeedCorpus pins the malformed-input seeds as plain unit
// cases: each must error (not panic) even when the fuzzer is not run.
func TestReadRejectsSeedCorpus(t *testing.T) {
	valid := 0
	for i, seed := range fuzzSeeds(t) {
		_, err := Read(bytes.NewReader(seed))
		if err == nil {
			valid++
			continue
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("seed %d: error %v does not wrap ErrBadFormat", i, err)
		}
	}
	if valid != 1 {
		t.Errorf("%d seeds parsed cleanly, want exactly the one valid file", valid)
	}
}

package spill

import (
	"compress/flate"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"spear/internal/tuple"
)

// codecCases cover every value kind, negative deltas (out-of-order
// timestamps), empty chunks, and payloads dense enough that flate
// declines to compress them.
func codecCases() map[string][]tuple.Tuple {
	long := strings.Repeat("abcdefgh", 64)
	return map[string][]tuple.Tuple{
		"empty": {},
		"one":   {tuple.New(42, tuple.Float(3.5))},
		"kinds": {
			tuple.New(-5, tuple.Int(-123456789), tuple.Bool(true)),
			tuple.New(0, tuple.String_(""), tuple.Bool(false)),
			tuple.New(7, tuple.Float(-0.25), tuple.String_("héllo\x00world")),
		},
		"no-vals":   {tuple.New(1), tuple.New(2), tuple.New(3)},
		"unsorted":  {tuple.New(100), tuple.New(50), tuple.New(200), tuple.New(-7)},
		"repetitve": mkChunk(1_000_000, 256), // compresses well
		"longstr": {
			tuple.New(9, tuple.String_(long)),
			tuple.New(10, tuple.String_(long)),
		},
	}
}

func TestChunkCodecRoundTrip(t *testing.T) {
	for name, ts := range codecCases() {
		for _, level := range []int{0, 1, 6, 9} {
			enc, err := EncodeChunk(ts, level)
			if err != nil {
				t.Fatalf("%s/level %d: encode: %v", name, level, err)
			}
			got, err := DecodeChunk(enc)
			if err != nil {
				t.Fatalf("%s/level %d: decode: %v", name, level, err)
			}
			sameTuples(t, got, ts)
		}
	}
}

func TestChunkCodecCompresses(t *testing.T) {
	ts := mkChunk(0, 512)
	raw, err := EncodeChunk(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := EncodeChunk(ts, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(raw) {
		t.Fatalf("level 6 (%d bytes) did not beat level 0 (%d bytes) on repetitive data",
			len(comp), len(raw))
	}
}

// TestEncodeChunkReusesItsFlateWriter holds deflate to its pool: the
// lower quartile of what an EncodeChunk call allocates is a small
// fraction of one flate.NewWriter (hundreds of KB), so the writer it
// took from the pool went back; with the Put gone, every call makes one.
// A quartile, not the mean or the median: under -race sync.Pool drops a
// quarter of what is put into it, and 31 calls there can miss on more
// than half.
func TestEncodeChunkReusesItsFlateWriter(t *testing.T) {
	ts := mkChunk(0, 512)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for level := 1; level <= 9; level++ {
		writer := allocated(func() { _, _ = flate.NewWriter(io.Discard, level) })
		calls := make([]uint64, 31)
		for i := range calls {
			calls[i] = allocated(func() {
				if _, err := EncodeChunk(ts, level); err != nil {
					t.Fatal(err)
				}
			})
		}
		slices.Sort(calls)
		if q1 := calls[len(calls)/4]; q1 > writer/4 {
			t.Errorf("level %d: a quarter of EncodeChunk calls allocate at most %d B, a flate.NewWriter %d B: the writer is not reused", level, q1, writer)
		}
	}
}

func TestChunkCodecBadLevel(t *testing.T) {
	if _, err := EncodeChunk(nil, -1); err == nil {
		t.Error("level -1 accepted")
	}
	if _, err := EncodeChunk(nil, 10); err == nil {
		t.Error("level 10 accepted")
	}
}

func TestChunkCodecCorrupt(t *testing.T) {
	good, err := EncodeChunk(mkChunk(0, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"short":       good[:3],
		"bad magic":   append([]byte{'X', 'C'}, good[2:]...),
		"bad flags":   append([]byte{good[0], good[1], good[2], 0x80}, good[4:]...),
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte{}, good...), 0xff),
		"count only":  {chunkMagic0, chunkMagic1, chunkVersion, 0, 0xff},
		"huge count":  {chunkMagic0, chunkMagic1, chunkVersion, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"bad deflate": {chunkMagic0, chunkMagic1, chunkVersion, flagCompressed, 0x12, 0x34, 0x56},
	}
	for name, b := range cases {
		if _, err := DecodeChunk(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := DecodeChunk([]byte{chunkMagic0, chunkMagic1, 99, 0}); err == nil ||
		errors.Is(err, ErrChunkCorrupt) {
		t.Errorf("unknown version should fail without claiming corruption, got %v", err)
	}
}

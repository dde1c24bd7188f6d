package tuple

import (
	"bytes"
	"math"
	"testing"
)

// fuzzSeedTuples are representative runs whose encodings seed the
// corpus alongside the checked-in files under
// testdata/fuzz/FuzzTupleCodec.
func fuzzSeedTuples() [][]Tuple {
	return [][]Tuple{
		{},
		{New(0)},
		{New(1, Int(-1), Float(math.Pi), String_("hello"), Bool(true))},
		{New(-9e18, Float(math.Inf(1)), Float(math.NaN()))},
		{New(42, String_("")), New(43, String_("αβγ\x00\xff"))},
		{New(7, Int(1)), New(8, Int(2)), New(9, Int(3))},
	}
}

// FuzzTupleCodec fuzzes the package's exported codecs with arbitrary
// bytes: the value codec (DecodeValue, the column image's escape arm)
// and DecodeBatch (the column image, as the benchmark's layer probes
// call it).
//
//  1. Neither may panic, whatever the input (historically: a declared
//     string length of 2^64-1 wrapped DecodeValue's bounds check and
//     crashed — see TestDecodeHugeStringLenRegression).
//  2. Whatever either accepts must round-trip: re-encoding it and
//     decoding again yields the same value or rows, and the
//     re-encoding is a fixed point (canonical form).
func FuzzTupleCodec(f *testing.F) {
	for _, ts := range fuzzSeedTuples() {
		f.Add(EncodeBatch(ts))
		for _, t := range ts {
			for _, v := range t.Vals {
				f.Add(AppendValue(nil, v))
			}
		}
	}
	// Adversarial seeds: truncations, a bad kind byte, huge declared
	// counts and lengths.
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Add(append([]byte{0x09}, make([]byte, 8)...)) // unknown kind
	f.Add(hugeStringLenInput())

	f.Fuzz(func(t *testing.T, b []byte) {
		if v, n, err := DecodeValue(b); err == nil {
			if n <= 0 || n > len(b) {
				t.Fatalf("DecodeValue consumed %d of %d bytes", n, len(b))
			}
			enc := AppendValue(nil, v)
			v2, n2, err := DecodeValue(enc)
			if err != nil || n2 != len(enc) || !v.Equal(v2) {
				t.Fatalf("value round-trip: %v, then %v (%d of %d bytes, %v)", v, v2, n2, len(enc), err)
			}
			if enc2 := AppendValue(nil, v2); !bytes.Equal(enc, enc2) {
				t.Fatalf("value re-encoding is not a fixed point")
			}
		}
		ts, err := DecodeBatch(b)
		if err != nil {
			return
		}
		enc := EncodeBatch(ts)
		ts2, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded batch failed: %v", err)
		}
		if !sameRows(ts, ts2) {
			t.Fatalf("batch round-trip mismatch:\n in: %v\nout: %v", ts, ts2)
		}
		if enc2 := EncodeBatch(ts2); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point")
		}
	})
}

// hugeStringLenInput is the minimized crasher the fuzzer's first run
// produced, as the value codec writes it: one KindString value
// declaring length 2^64-1, which wrapped `uint64(pos)+l` past the
// bounds check and made the slice expression panic.
func hugeStringLenInput() []byte {
	b := []byte{byte(KindString)}
	return append(b, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01) // len = 2^64-1
}

// TestDecodeHugeStringLenRegression pins the fix outside the fuzz
// engine so plain `go test` exercises it too: alone, and as the one
// value of a column image's escape arm.
func TestDecodeHugeStringLenRegression(t *testing.T) {
	if _, _, err := DecodeValue(hugeStringLenInput()); err == nil {
		t.Fatal("DecodeValue accepted a 2^64-1 byte string in an 11-byte input")
	}
	// One row at Ts 0 of width 1, its column through the escape arm.
	image := append([]byte{1, 0, 1, 2, 0}, hugeStringLenInput()...)
	if _, err := DecodeColumns(nil, image); err == nil {
		t.Fatal("DecodeColumns accepted the wrapped-length input")
	}
}

// FuzzColumnsCodec fuzzes the column image with arbitrary bytes:
// DecodeColumns must never panic or allocate by a declared count, and
// an image it accepts must round-trip — the decoded rows re-encode to a
// canonical image (a ragged width column whose rows agree, or an escape
// arm over one kind, does not survive), which decodes to the same rows
// and re-encodes to itself. Every input is also decoded into a recycled
// run and slab that still hold other rows' strings and values, as a
// shard's decoder reuses them: the result must be the fresh decode's
// rows, to the bit, or its error.
func FuzzColumnsCodec(f *testing.F) {
	for _, rows := range columnRuns() {
		f.Add(AppendColumns(nil, rows))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	// Not canonical: ragged widths that agree, an escape arm over one
	// kind; tick deltas three bytes wide.
	f.Add(AppendValue(AppendValue([]byte{2, 2, 1, 2, 0, 1, 1, 0}, Float(1)), Float(2)))
	f.Add([]byte{3, 2, 3, 2, 0, 0, 2, 0, 0, 1})
	f.Add([]byte{1, 2, 1, 2, 9, 0, 0, 0, 0, 0, 0, 0, 0}) // unknown kind
	// Ts widths no image has, and one the bytes cannot hold.
	f.Add([]byte{2, 2, 0, 2, 1})
	f.Add([]byte{2, 2, 9, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{5, 2, 8, 2, 0, 0, 0, 0, 0, 0, 0, 1})
	// Through the escape arm: a bad kind byte, a string length of
	// 2^64-1; and that length in a string column.
	f.Add([]byte{1, 2, 1, 2, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(append([]byte{1, 0, 1, 2, 0}, hugeStringLenInput()...))
	f.Add(append([]byte{1, 0, 1, 2}, hugeStringLenInput()...))

	f.Fuzz(func(t *testing.T, b []byte) {
		rows, err := DecodeColumns(nil, b)
		// A value takes at least a byte, so a slab of len(b) values
		// has the room for any image of b.
		slab := make([]Value, len(b)+2)
		for i := range slab {
			slab[i] = []Value{String_("stale"), Int(int64(i)), Float(-1), Bool(true)}[i%4]
		}
		run := []Tuple{{Ts: -1, Vals: slab[:1]}, {Ts: -2, Vals: slab[1:2]}}
		again, used, err2 := DecodeColumnsInto(run[:0], slab, b)
		if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() {
			t.Fatalf("fresh decode: %v, into a recycled slab: %v", err, err2)
		}
		if err != nil {
			return
		}
		if !sameRows(again, rows) {
			t.Fatalf("into a recycled slab:\n got: %#v\nwant: %#v", again, rows)
		}
		if &used[:1][0] != &slab[0] {
			t.Fatalf("a slab with the room for the image was not reused")
		}
		enc := AppendColumns(nil, rows)
		rows2, err := DecodeColumns(nil, enc)
		if err != nil {
			t.Fatalf("re-decode of the canonical image failed: %v", err)
		}
		if !sameRows(rows, rows2) {
			t.Fatalf("round-trip mismatch:\n in: %v\nout: %v", rows, rows2)
		}
		if enc2 := AppendColumns(nil, rows2); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point:\n 1: %x\n 2: %x", enc, enc2)
		}
	})
}

package transport

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"spear/internal/tuple"
)

// FuzzFrameCodec fuzzes the transport frame codec with arbitrary
// bodies:
//
//  1. DecodeFrame / DecodeHello / DecodeWelcome must never panic,
//     whatever the input — truncated bodies, hostile counts, and
//     wrapped length fields all surface as ErrFrame.
//  2. Any body DecodeFrame accepts must round-trip: re-encoding the
//     decoded frame and decoding again reaches a byte-identical fixed
//     point (the canonical encoding). Byte-level comparison keeps NaN
//     result scalars honest where DeepEqual cannot.
//  3. A batch frame decodes to the same tuples into a pooled run as
//     into a fresh one, and appending to one tuple's Vals must not
//     reach into its neighbour's (every Vals is cap-limited within the
//     frame's one slab).
//  4. ReadFrame over the raw bytes must reject zero and oversized
//     length prefixes before allocating.
//
// The seeds live both here and checked in under
// testdata/fuzz/FuzzFrameCodec (regenerate with
// SPEAR_WRITE_CORPUS=1 go test ./internal/transport -run TestRegenFuzzCorpus).
func FuzzFrameCodec(f *testing.F) {
	for _, body := range fuzzFrameSeeds() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if fr, err := DecodeFrame(b); err == nil {
			enc := reencodeFrame(fr)
			fr2, err := DecodeFrame(enc)
			if err != nil {
				t.Fatalf("re-decode of canonical %s failed: %v", fr.Kind, err)
			}
			if enc2 := reencodeFrame(fr2); !bytes.Equal(enc, enc2) {
				t.Fatalf("%s re-encoding is not a fixed point:\n 1: %x\n 2: %x", fr.Kind, enc, enc2)
			}
			if fr.Kind == KindBatch {
				checkBatchRows(t, b, fr)
			}
		}
		if h, err := DecodeHello(b); err == nil {
			h2, err := DecodeHello(AppendHello(nil, h))
			if err != nil || h2 != h {
				t.Fatalf("hello round-trip: %+v vs %+v (%v)", h, h2, err)
			}
		}
		if w, err := DecodeWelcome(b); err == nil {
			w2, err := DecodeWelcome(AppendWelcome(nil, w))
			if err != nil || w2 != w {
				t.Fatalf("welcome round-trip: %+v vs %+v (%v)", w, w2, err)
			}
		}
		_, _ = ReadFrame(bytes.NewReader(b), nil)
	})
}

// checkBatchRows decodes an accepted batch frame again into a pooled
// run and a recycled slab that held other tuples, compares, then
// appends to every tuple's Vals and checks that no other tuple changed.
func checkBatchRows(t *testing.T, body []byte, fr Frame) {
	t.Helper()
	pooled := make([]tuple.Tuple, 4, 8)
	slab := make([]tuple.Value, len(body))
	for i := range pooled {
		pooled[i] = tuple.New(-1, tuple.String_("stale"))
	}
	for i := range slab {
		slab[i] = tuple.String_("stale")
	}
	again, err := decodeFrame(body, func() ([]tuple.Tuple, []tuple.Value) { return pooled[:0], slab })
	if err != nil || len(again.Rows) != len(fr.Rows) || !sameRows(again.Rows, fr.Rows) {
		t.Fatalf("into a pooled run: %v (%v), into a fresh one: %v", again.Rows, err, fr.Rows)
	}
	want := make([]tuple.Tuple, len(fr.Rows))
	for i, row := range fr.Rows {
		want[i] = tuple.Tuple{Ts: row.Ts, Vals: append([]tuple.Value(nil), row.Vals...)}
	}
	for i := range fr.Rows {
		_ = append(fr.Rows[i].Vals, tuple.Int(-1))
	}
	for i := range fr.Rows {
		if !sameRows(fr.Rows[i:i+1], want[i:i+1]) {
			t.Fatalf("tuple %d changed when its neighbours' Vals were appended to: %v, want %v", i, fr.Rows[i], want[i])
		}
	}
}

// fuzzFrameSeeds is the full seed set: every valid payload kind, the
// handshake frames, and adversarial shapes (truncations, unknown
// kinds, huge declared counts, hostile length prefixes).
func fuzzFrameSeeds() [][]byte {
	seeds := payloadFrameSeeds()
	seeds = append(seeds,
		AppendHello(nil, Hello{
			Version: ProtocolVersion, TopoHash: 1, RunID: 2, Epoch: 1,
			Job: JobSpec{Lo: 0, Hi: 2, BatchSize: 64},
		}),
		AppendWelcome(nil, Welcome{Version: ProtocolVersion, TopoHash: 1}),
		nil,
		[]byte{0xEE},
		bytes.Repeat([]byte{0xFF}, 24),
		// Batches over every arm of the column image: packed numeric
		// columns, ragged widths, the escape arm.
		AppendBatch(nil, 2, 1, 0, []tuple.Tuple{
			tuple.New(1_000, tuple.Float(0.5), tuple.Int(1)),
			tuple.New(1_001, tuple.Float(-3), tuple.Int(2)),
		}),
		AppendBatch(nil, 3, 0, 1, []tuple.Tuple{
			tuple.New(5, tuple.Bool(true)),
			tuple.New(-5),
			tuple.New(math.MinInt64, tuple.String_(""), tuple.Float(math.NaN())),
		}),
		// Batch with a count the body cannot hold.
		append([]byte{byte(KindBatch), 1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, 0),
		// Result declaring a huge group count.
		append([]byte{byte(KindResult)}, bytes.Repeat([]byte{0x80}, 16)...),
	)
	for _, body := range payloadFrameSeeds() {
		if len(body) > 2 {
			seeds = append(seeds, body[:len(body)/2])
		}
	}
	return seeds
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpus from
// fuzzFrameSeeds. Gated behind SPEAR_WRITE_CORPUS so a normal test
// run never touches testdata.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("SPEAR_WRITE_CORPUS") == "" {
		t.Skip("set SPEAR_WRITE_CORPUS=1 to regenerate testdata/fuzz/FuzzFrameCodec")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, body := range fuzzFrameSeeds() {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
		name := filepath.Join(dir, fmt.Sprintf("seed_%02d", i))
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

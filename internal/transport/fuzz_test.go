package transport

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
//  3. A batch frame's slab-decoded tuples must equal what tuple.Decode
//     makes of the same bytes, one tuple at a time, and appending to one
//     tuple's Vals must not reach into its neighbour's.
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
				checkSlabDecode(t, b, fr)
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

// checkSlabDecode compares an accepted batch frame's tuples with the
// plain tuple codec's reading of the same body, then appends to every
// tuple's Vals and checks that no other tuple changed.
func checkSlabDecode(t *testing.T, body []byte, fr Frame) {
	t.Helper()
	r := tuple.NewWireReader(body[1:])
	r.Uvar()
	r.Uvar()
	r.Uvar()
	n := int(r.Uvar())
	if r.Err() != nil || n != len(fr.Rows) {
		t.Fatalf("batch header: count %d, %d tuples decoded (%v)", n, len(fr.Rows), r.Err())
	}
	rest := body[len(body)-r.Remaining():]
	want := make([]tuple.Tuple, n)
	for i := range want {
		tup, used, err := tuple.Decode(rest)
		if err != nil {
			t.Fatalf("tuple %d: tuple.Decode refuses what the slab decode accepted: %v", i, err)
		}
		if got := fr.Rows[i]; !reflect.DeepEqual(got, tup) {
			t.Fatalf("tuple %d: slab decode %+v, tuple.Decode %v", i, got, tup)
		}
		want[i], rest = tup, rest[used:]
	}
	for i := range fr.Rows {
		_ = append(fr.Rows[i].Vals, tuple.Int(-1))
	}
	for i := range fr.Rows {
		if !reflect.DeepEqual(fr.Rows[i], want[i]) {
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
			Lo: 0, Hi: 2, Par: 4, Senders: 1, BatchSize: 64, QueueSize: 16,
			Window: 256,
		}),
		AppendWelcome(nil, Welcome{Version: ProtocolVersion, TopoHash: 1, Window: 256}),
		nil,
		[]byte{0xEE},
		bytes.Repeat([]byte{0xFF}, 24),
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

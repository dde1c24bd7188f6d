package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"spear/internal/core"
	"spear/internal/leakcheck"
	"spear/internal/tuple"
)

// reencodeFrame re-encodes a decoded payload frame with the matching
// Append function — the codec's canonical form. Shared by the
// round-trip tests and the fuzzer's fixed-point check.
func reencodeFrame(f Frame) []byte {
	switch f.Kind {
	case KindBatch:
		return AppendBatch(nil, f.Seq, f.Dest, 0, f.Rows)
	case KindWatermark:
		return AppendWatermark(nil, f.Seq, f.Dest, f.WM)
	case KindBarrier:
		return AppendBarrier(nil, f.Seq, f.Dest, f.Barrier)
	case KindEnd:
		return AppendEnd(nil, f.Seq, f.Dest)
	case KindCredit:
		return AppendCredit(nil, f.Acked)
	case KindResult:
		return AppendResult(nil, f.Seq, f.Worker, f.Result)
	case KindSnapAck:
		return AppendSnapAck(nil, f.Seq, f.Snap)
	case KindGoodbye:
		return AppendGoodbye(nil, f.Seq)
	case KindReject:
		return AppendReject(nil, f.Reason)
	}
	return nil
}

// sameRows compares two runs by tuple.Value.Equal: a Value holds a
// string by its address, which reflect.DeepEqual would compare.
func sameRows(a, b []tuple.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y tuple.Tuple) bool {
		return x.Ts == y.Ts && slices.EqualFunc(x.Vals, y.Vals, tuple.Value.Equal)
	})
}

// sameFrame is reflect.DeepEqual on everything but the rows, which it
// compares with sameRows, and the slab they are carved from.
func sameFrame(a, b Frame) bool {
	ra, rb := a.Rows, b.Rows
	a.Rows, a.slab, b.Rows, b.slab = nil, nil, nil, nil
	return reflect.DeepEqual(a, b) && sameRows(ra, rb)
}

// payloadFrameSeeds covers every payload kind with representative and
// edge values (empty batches, NaN scalars, grouped results, deferred
// deletions).
func payloadFrameSeeds() [][]byte {
	ts := []tuple.Tuple{
		tuple.New(1, tuple.Int(-5), tuple.String_("k")),
		tuple.New(2, tuple.Float(math.Pi)),
	}
	return [][]byte{
		AppendBatch(nil, 1, 0, 0, nil),
		AppendBatch(nil, 7, 3, 2, ts),
		AppendWatermark(nil, 2, 1, -42),
		AppendWatermark(nil, 3, 0, math.MaxInt64),
		AppendBarrier(nil, 4, 2, 9000),
		AppendEnd(nil, 5, 1),
		AppendCredit(nil, 0),
		AppendCredit(nil, 1<<60),
		AppendResult(nil, 6, 2, core.Result{
			WindowID: 4, Start: 100, End: 200, N: 50, SampleN: 10,
			Mode: core.ModeSampled, EstError: 0.05, Scalar: 3.25,
		}),
		AppendResult(nil, 7, 0, core.Result{
			Start: -1, End: 0, N: 1, Mode: core.ModeExact,
			Scalar: math.NaN(), FetchedFromStore: true,
			Groups: map[string]float64{"b": 2, "a": 1, "": math.Inf(1)},
		}),
		AppendSnapAck(nil, 8, SnapAck{
			ID: 3, Worker: 1, Key: "cp/3/w1", Size: 512, Sum: 0xdead,
			Deferred: []string{"old/1", "old/2"},
		}),
		AppendGoodbye(nil, 9),
		AppendReject(nil, "topology hash mismatch"),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for i, body := range payloadFrameSeeds() {
		f, err := DecodeFrame(body)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", i, err)
		}
		enc := reencodeFrame(f)
		if !bytes.Equal(enc, body) {
			t.Errorf("seed %d (%s): re-encoding differs\n in: %x\nout: %x", i, f.Kind, body, enc)
		}
		f2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("seed %d: re-decode: %v", i, err)
		}
		if f.Kind != KindResult && !sameFrame(f, f2) {
			// Result frames may hold NaN (DeepEqual-hostile); their
			// byte-level fixed point above is the stronger check.
			t.Errorf("seed %d (%s): round-trip mismatch\n in: %+v\nout: %+v", i, f.Kind, f, f2)
		}
	}
}

func TestHelloWelcomeRoundTrip(t *testing.T) {
	h := Hello{
		Version: ProtocolVersion, TopoHash: 0xfeed, RunID: 77, Epoch: 3,
		Job: JobSpec{
			Lo: 2, Hi: 4, BatchSize: 64,
			Checkpoint: true, RestoreID: 5,
		},
		Acked: 123,
	}
	// The bytes of protocol version 6's Hello: the job spec is encoded
	// field by field between Epoch and Acked.
	const pinned = "0106edfe0000000000004d00000000000000030204400105000000000000007b"
	enc := AppendHello(nil, h)
	if got := hex.EncodeToString(enc); got != pinned {
		t.Errorf("hello encodes to\n %s\nwant\n %s", got, pinned)
	}
	h2, err := DecodeHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Errorf("hello round-trip:\n in: %+v\nout: %+v", h, h2)
	}
	w := Welcome{Version: ProtocolVersion, TopoHash: 0xfeed, Acked: 9}
	w2, err := DecodeWelcome(AppendWelcome(nil, w))
	if err != nil {
		t.Fatal(err)
	}
	if w2 != w {
		t.Errorf("welcome round-trip:\n in: %+v\nout: %+v", w, w2)
	}
}

func TestDecodeHelloRejectsBadShard(t *testing.T) {
	for _, j := range []JobSpec{
		{Lo: -1, Hi: 1},
		{Lo: 1, Hi: 1}, // empty range
	} {
		if _, err := DecodeHello(AppendHello(nil, Hello{Job: j})); err == nil {
			t.Errorf("DecodeHello accepted invalid shard spec %+v", j)
		}
	}
}

func TestWriteFrameBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); err == nil {
		t.Error("WriteFrame accepted an empty body")
	}
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Error("WriteFrame accepted an oversized body")
	}
}

func TestReadFrameHardening(t *testing.T) {
	frame := func(n uint32, body []byte) []byte {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], n)
		return append(hdr[:], body...)
	}
	cases := map[string][]byte{
		"zero length":      frame(0, nil),
		"oversized length": frame(MaxFrame+1, nil),
		"max length":       frame(math.MaxUint32, nil),
		"truncated header": {0x01, 0x00},
		"truncated body":   frame(10, []byte("short")),
	}
	for name, in := range cases {
		if _, err := ReadFrame(bytes.NewReader(in), nil); err == nil {
			t.Errorf("%s: ReadFrame accepted it", name)
		}
	}
	// An oversized prefix must be rejected before the body allocation:
	// reading it from a huge stream must not consume the declared size.
	r := bytes.NewReader(frame(MaxFrame+1, make([]byte, 64)))
	if _, err := ReadFrame(r, nil); err == nil || r.Len() != 64 {
		t.Errorf("oversized prefix: err=%v, consumed body bytes (%d left)", err, r.Len())
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("hello frame")
	if err := WriteFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, 64)
	got, err := ReadFrame(&buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("got %q, want %q", got, body)
	}
	if &got[0] != &scratch[:1][0] {
		t.Error("ReadFrame allocated despite a large-enough buffer")
	}
}

func TestDecodeFrameHardening(t *testing.T) {
	if _, err := DecodeFrame(nil); err == nil {
		t.Error("DecodeFrame accepted an empty body")
	}
	if _, err := DecodeFrame([]byte{0xEE, 1, 2, 3}); err == nil {
		t.Error("DecodeFrame accepted an unknown kind")
	}
	// Every truncation of every valid frame must error, never panic.
	for i, body := range payloadFrameSeeds() {
		for cut := 0; cut < len(body); cut++ {
			if _, err := DecodeFrame(body[:cut]); err == nil {
				// A shorter valid frame is conceivable only if the
				// re-encoding matches; none of the seeds has one.
				t.Errorf("seed %d truncated to %d bytes decoded cleanly", i, cut)
			}
		}
		// Trailing garbage must be rejected (Done checks exact use).
		if _, err := DecodeFrame(append(append([]byte{}, body...), 0x00)); err == nil {
			t.Errorf("seed %d with a trailing byte decoded cleanly", i)
		}
	}
	// A batch declaring more tuples than the body can hold must fail
	// before allocating the declared count.
	huge := []byte{byte(KindBatch), 1, 0, 0}
	huge = tuple.AppendUvar(huge, 1<<40)
	if _, err := DecodeFrame(huge); err == nil || !strings.Contains(err.Error(), "batch") {
		t.Errorf("huge tuple count: %v", err)
	}
	// A worker has one sender: a data or control frame whose sender byte
	// (the fourth, here) is not 0 is refused.
	for _, body := range [][]byte{
		AppendBatch(nil, 1, 0, 0, []tuple.Tuple{tuple.New(1, tuple.Float(2))}),
		AppendWatermark(nil, 1, 0, 5),
		AppendBarrier(nil, 1, 0, 9),
	} {
		body[3] = 1
		if _, err := DecodeFrame(body); !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "sender") {
			t.Errorf("%s from sender 1: %v", Kind(body[0]), err)
		}
	}
}

// TestDecodeBatchAllocs gates the receive path's allocation budget: a
// 64-tuple numeric batch frame decoded into a pooled run and the slab
// the frame before it handed back costs nothing.
func TestDecodeBatchAllocs(t *testing.T) {
	ts := make([]tuple.Tuple, 64)
	for i := range ts {
		ts[i] = tuple.New(int64(i), tuple.Float(float64(i)), tuple.Int(int64(i)))
	}
	body := AppendBatch(nil, 1, 0, 3, ts)
	pooled := make([]tuple.Tuple, 0, len(ts))
	var slab []tuple.Value
	batch := func() ([]tuple.Tuple, []tuple.Value) { return pooled[:0], slab }
	var f Frame
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if f, err = decodeFrame(body, batch); err != nil {
			t.Fatal(err)
		}
		slab = f.slab
	})
	if allocs > 0 {
		t.Errorf("%v allocations per 64-tuple frame, want none", allocs)
	}
	if len(f.Rows) != len(ts) || &f.Rows[0] != &pooled[:1][0] {
		t.Fatalf("%d tuples decoded, in the pooled run: %v", len(f.Rows), len(f.Rows) > 0 && &f.Rows[0] == &pooled[:1][0])
	}
	if !sameRows(f.Rows, ts) {
		t.Fatalf("decoded %v, want %v", f.Rows, ts)
	}
}

// TestBatchFrameCodecIsLockFree holds the send and receive hot paths to
// their lock-free contract: AppendBatch, and decodeFrame filling a run
// that a func value hands out, as the link's handler does from the
// shard's pool.
func TestBatchFrameCodecIsLockFree(t *testing.T) {
	ts := []tuple.Tuple{
		tuple.New(1, tuple.Float(1.5), tuple.Int(2)),
		tuple.New(3, tuple.Float(4.5), tuple.Int(6)),
	}
	bufs := make([][]byte, 4)
	runs := make([]func() ([]tuple.Tuple, []tuple.Value), 4)
	for g := range runs {
		pooled := make([]tuple.Tuple, 0, len(ts))
		slab := make([]tuple.Value, 2*len(ts[0].Vals))
		runs[g] = func() ([]tuple.Tuple, []tuple.Value) { return pooled[:0], slab }
	}
	leakcheck.NoBlocking(t, func(g, i int) {
		bufs[g] = AppendBatch(bufs[g][:0], uint64(i), 0, 3, ts)
		if _, err := decodeFrame(bufs[g], runs[g]); err != nil {
			t.Error(err)
		}
	})
}

// TestV2BatchFramesRejected: a batch frame as protocol version 2 wrote
// it (every tuple through tuple.AppendEncode) is not a column image. A
// v2 peer never gets past the handshake; these are the checked-in v2
// corpus seeds and a full numeric frame, which must fail to decode, not
// decode to other tuples.
func TestV2BatchFramesRejected(t *testing.T) {
	// A v2 tuple was its Ts (8 bytes), a uvarint value count and each
	// value as tuple.AppendValue writes it.
	v2 := func(seq uint64, dest int, ts []tuple.Tuple) []byte {
		b := []byte{byte(KindBatch)}
		b = tuple.AppendUvar(b, seq)
		b = tuple.AppendUvar(b, uint64(dest))
		b = append(b, 0) // the sender
		b = tuple.AppendUvar(b, uint64(len(ts)))
		for _, tp := range ts {
			b = tuple.AppendUvar(tuple.AppendI64(b, tp.Ts), uint64(len(tp.Vals)))
			for _, v := range tp.Vals {
				b = tuple.AppendValue(b, v)
			}
		}
		return b
	}
	full := make([]tuple.Tuple, 64)
	for i := range full {
		full[i] = tuple.New(int64(1_000+i), tuple.Float(float64(i)))
	}
	for name, body := range map[string][]byte{
		"corpus seed_01": v2(7, 3, []tuple.Tuple{
			tuple.New(1, tuple.Int(-5), tuple.String_("k")),
			tuple.New(2, tuple.Float(math.Pi)),
		}),
		"64 numeric tuples": v2(1, 0, full),
		"one tuple":         v2(1, 0, full[:1]),
	} {
		if f, err := DecodeFrame(body); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: a v2 batch frame decoded to %d rows (%v), want ErrFrame", name, len(f.Rows), err)
		}
	}
}

// BenchmarkAppendBatch times encoding a 64-tuple numeric run into a
// recycled frame buffer, as the pump does.
func BenchmarkAppendBatch(b *testing.B) {
	ts := make([]tuple.Tuple, 64)
	for i := range ts {
		ts[i] = tuple.New(int64(1_000+i), tuple.Float(float64(i)))
	}
	buf := AppendBatch(nil, 1, 0, 3, ts)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendBatch(buf[:0], uint64(i), 0, 3, ts)
	}
}

// BenchmarkAppendResult times encoding a grouped result of 2.5 K groups,
// about what a DEBS window carries, into a recycled frame buffer: the
// keys are written sorted, so the sort is most of the cost.
func BenchmarkAppendResult(b *testing.B) {
	groups := make(map[string]float64, 2500)
	for i := 0; len(groups) < 2500; i++ {
		groups[fmt.Sprintf("%08X%08X", i*2654435761, i)] = float64(i)
	}
	r := core.Result{WindowID: 7, Start: 1_000, End: 2_000, N: 1 << 20, Mode: core.ModeIncremental, Groups: groups}
	buf := AppendResult(nil, 1, 0, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendResult(buf[:0], uint64(i), 0, r)
	}
}

// BenchmarkDecodeFrame times a 64-tuple numeric batch frame through the
// public entry point, which allocates the tuples' home per frame, and
// through the link's, which decodes into a pooled run and a fresh value
// slab (pooled) or a recycled one (recycled).
func BenchmarkDecodeFrame(b *testing.B) {
	ts := make([]tuple.Tuple, 64)
	for i := range ts {
		ts[i] = tuple.New(int64(i), tuple.Float(float64(i)))
	}
	body := AppendBatch(nil, 1, 0, 3, ts)
	pooled := make([]tuple.Tuple, 0, len(ts))
	slab := make([]tuple.Value, len(ts))
	for name, batch := range map[string]func() ([]tuple.Tuple, []tuple.Value){
		"fresh":    nil,
		"pooled":   func() ([]tuple.Tuple, []tuple.Value) { return pooled[:0], nil },
		"recycled": func() ([]tuple.Tuple, []tuple.Value) { return pooled[:0], slab },
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeFrame(body, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

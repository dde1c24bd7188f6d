package transport

import (
	"bytes"
	"encoding/hex"
	"slices"
	"strings"
	"testing"
	"time"

	"spear/internal/leakcheck"
	"spear/internal/spe"
	"spear/internal/tuple"
)

// pumpGolden is what fabricNode.pump puts on the link, frame after
// frame with length prefixes, for the input of TestPumpFrameBytes under
// protocol version 6, whose data and control frames are version 4's
// with every sender byte 0. The control frames (watermark, barrier,
// end) are the bytes written since before runs replaced per-tuple
// message batches on the engine's channels; the two batch frames are
// column images — the first ragged (widths 1, 2, 0: a float column, an
// int column) with a step back in time (Ts deltas two bytes wide), the
// second a string column and a bool/float column through the escape
// arm.
const pumpGolden = "" +
	"2a0000000401020003d00f020200db070001020002000000000000e03f000000" +
	"00000008c00107000000000000000c00000005020200e8030000000000002700" +
	"00000403020002a01f02e8030303066275732d31370000040100000000000000" +
	"029c7500883ce4377e0c0000000604020009000000000000000c000000050502" +
	"00ffffffffffffff7f03000000070602"

// TestPumpFrameBytes pins the bytes the source side of the shuffle
// writes: one batch frame per run (a control follows each), a
// control frame per control, End when the outbox closes — sequence
// numbers and tuple encoding included. The link has no connection, so every
// frame stays parked in its retention buffer, which is the wire image.
func TestPumpFrameBytes(t *testing.T) {
	lk := newLink("golden", 0, &collectHandler{}, nil)
	defer lk.close()
	recycled := 0
	n := &fabricNode{
		f:  &Fabric{env: spe.FabricEnv{Recycle: func(b spe.Batch) { recycled += b.Len() }}},
		lk: lk,
	}
	out := make(chan spe.Batch, 8)
	out <- spe.Batch{Rows: []tuple.Tuple{
		tuple.New(1_000, tuple.Float(0.5)),
		tuple.New(1_001, tuple.Float(-3), tuple.Int(7)),
		tuple.New(-5),
	}}
	out <- spe.Batch{Ctl: spe.Watermark, WM: 1_000}
	out <- spe.Batch{Rows: []tuple.Tuple{
		tuple.New(2_000, tuple.String_("bus-17"), tuple.Bool(true)),
		tuple.New(2_500, tuple.String_(""), tuple.Float(1e300)),
	}}
	out <- spe.Batch{Ctl: spe.Barrier, Barrier: 9}
	out <- spe.Batch{Ctl: spe.Watermark, WM: 1<<63 - 1}
	close(out)
	n.wg.Add(1)
	n.pump(2, out)

	lk.mu.Lock()
	got := bytes.Join(lk.unacked, nil)
	lk.mu.Unlock()
	if hex.EncodeToString(got) != pumpGolden {
		t.Fatalf("pump wrote\n%x\nwant\n%s", got, pumpGolden)
	}
	if recycled != 5 {
		t.Fatalf("%d tuples' runs recycled, want 5", recycled)
	}
}

// parkedPump runs a pump over out, on a link with no connection: every
// frame it sends stays parked in the retention buffer. It returns the
// frames decoded, in order, the largest body, and the runs recycled,
// once out is closed and drained.
func parkedPump(t *testing.T, out chan spe.Batch) (frames []Frame, largest int, recycled [][]tuple.Tuple) {
	t.Helper()
	h := &collectHandler{}
	lk := newLink("parked", 0, h, nil)
	defer lk.close()
	n := &fabricNode{
		f:  &Fabric{env: spe.FabricEnv{Recycle: func(b spe.Batch) { recycled = append(recycled, b.Rows) }}},
		lk: lk,
	}
	n.wg.Add(1)
	n.pump(2, out)
	h.mu.Lock()
	fatal := h.fatal
	h.mu.Unlock()
	if fatal != nil {
		t.Fatalf("link failed: %v", fatal)
	}
	lk.mu.Lock()
	defer lk.mu.Unlock()
	for _, wire := range lk.unacked {
		largest = max(largest, len(wire)-frameHdr)
		f, err := DecodeFrame(wire[frameHdr:])
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	return frames, largest, recycled
}

// numericRuns returns runs of the given lengths, their timestamps and
// values numbered across the runs.
func numericRuns(lens ...int) [][]tuple.Tuple {
	var runs [][]tuple.Tuple
	i := 0
	for _, n := range lens {
		run := make([]tuple.Tuple, n)
		for k := range run {
			run[k] = tuple.New(int64(1_000+3*i), tuple.Float(float64(i)/7), tuple.Int(int64(i%5)))
			i++
		}
		runs = append(runs, run)
	}
	return runs
}

// TestPumpCoalescesQueuedRuns pins the pump's batching: the data runs
// an outbox holds when the pump comes to them leave as one batch frame,
// every row in order, and every run is recycled once it is encoded.
// With a sender racing the pump, no frame carries more runs than the
// outbox holds.
func TestPumpCoalescesQueuedRuns(t *testing.T) {
	runs := numericRuns(3, 1, 5, 2, 7)
	out := make(chan spe.Batch, 8)
	for _, r := range runs {
		out <- spe.Batch{Rows: r}
	}
	close(out)
	frames, _, recycled := parkedPump(t, out)
	if len(frames) != 2 || frames[0].Kind != KindBatch || frames[1].Kind != KindEnd {
		t.Fatalf("%d frames, want one batch frame and End", len(frames))
	}
	if f := frames[0]; f.Seq != 1 || f.Dest != 2 || !sameRows(f.Rows, slices.Concat(runs...)) {
		t.Fatalf("batch frame seq %d dest %d rows %v, want seq 1 dest 2 and the five runs' rows in order", f.Seq, f.Dest, f.Rows)
	}
	if len(recycled) != len(runs) {
		t.Fatalf("%d runs recycled, want %d", len(recycled), len(runs))
	}
	for i, r := range recycled {
		if &r[0] != &runs[i][0] {
			t.Fatalf("recycled run %d is not the run sent %d-th", i, i)
		}
	}

	// A sender fills a four-run outbox as the pump drains it.
	const sent, per = 60, 3
	lens := make([]int, sent)
	for i := range lens {
		lens[i] = per
	}
	runs = numericRuns(lens...)
	out = make(chan spe.Batch, 4)
	go func() {
		for _, r := range runs {
			out <- spe.Batch{Rows: r}
		}
		close(out)
	}()
	frames, _, recycled = parkedPump(t, out)
	var rows []tuple.Tuple
	for _, f := range frames[:len(frames)-1] {
		if len(f.Rows) > cap(out)*per {
			t.Fatalf("a frame carries %d rows, more than the %d runs of %d the outbox holds", len(f.Rows), cap(out), per)
		}
		rows = append(rows, f.Rows...)
	}
	if !sameRows(rows, slices.Concat(runs...)) || len(recycled) != sent {
		t.Fatalf("%d rows arrived and %d runs were recycled, want %d and %d", len(rows), len(recycled), sent*per, sent)
	}
}

// TestPumpWatermarkRidesTheNextWrite pins where a control cuts the
// pump's frames and when they leave, counting the writes that reach the
// source's connection (one a frame: the counting wrapper hides the
// socket's writev). A control ends the batch frame before it and keeps
// its place in the stream. A watermark with runs behind it in the
// outbox queues like a run and leaves in the write of the frame that
// carries them; a barrier flushes at once. A watermark that is last in
// the outbox is delivered while the pump waits for more.
func TestPumpWatermarkRidesTheNextWrite(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	run := []tuple.Tuple{tuple.New(1, tuple.Float(1))}
	ca, cb := tcpPair(t)
	cc := &countConn{Conn: ca}
	hb := &collectHandler{}
	la, _ := linkPairOver(t, 0, cc, cb, &collectHandler{}, hb, nil)
	left := make(chan int64, 8) // the writes made when each run was recycled
	n := &fabricNode{
		f:  &Fabric{env: spe.FabricEnv{Recycle: func(spe.Batch) { left <- cc.writes.Load() }}},
		lk: la,
	}
	out := make(chan spe.Batch, 8)
	out <- spe.Batch{Rows: run}
	out <- spe.Batch{Rows: run}
	out <- spe.Batch{Ctl: spe.Watermark, WM: 1}
	out <- spe.Batch{Rows: run}
	out <- spe.Batch{Rows: run}
	out <- spe.Batch{Ctl: spe.Barrier, Barrier: 1}
	out <- spe.Batch{Rows: run}
	out <- spe.Batch{Rows: run}
	n.wg.Add(1)
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		n.pump(0, out)
	}()

	var writes []int64
	for range 6 {
		writes = append(writes, <-left)
	}
	if want := []int64{0, 0, 0, 0, 5, 5}; !slices.Equal(writes, want) {
		t.Fatalf("writes when each run left: %v, want %v (the watermark waits for the runs behind it, the barrier does not)", writes, want)
	}
	waitFor(t, "the first five frames", func() bool { return hb.count() == 5 })

	out <- spe.Batch{Rows: run}
	out <- spe.Batch{Ctl: spe.Watermark, WM: 2}
	waitFor(t, "a watermark last in the outbox", func() bool { return hb.count() == 7 })
	close(out)
	<-pumped
	waitFor(t, "End", func() bool { return hb.count() == 8 })
	hb.mu.Lock()
	defer hb.mu.Unlock()
	want := []struct {
		kind Kind
		rows int
	}{{KindBatch, 2}, {KindWatermark, 0}, {KindBatch, 2}, {KindBarrier, 0}, {KindBatch, 2}, {KindBatch, 1}, {KindWatermark, 0}, {KindEnd, 0}}
	for i, w := range want {
		if f := hb.frames[i]; f.Seq != uint64(i+1) || f.Kind != w.kind || len(f.Rows) != w.rows {
			t.Fatalf("frame %d: seq %d kind %s with %d rows, want %s with %d", i, f.Seq, f.Kind, len(f.Rows), w.kind, w.rows)
		}
	}
}

// TestPumpCapsCoalescedFrames holds the pump's byte cap: runs whose
// coalesced image would pass flushBytes go one frame each, as they
// would without coalescing, so no stream of runs that each fit in a
// frame can build one the peer refuses for passing MaxFrame.
func TestPumpCapsCoalescedFrames(t *testing.T) {
	for _, c := range []struct {
		name string
		runs int
		size int // bytes of the one string each run's one row carries
	}{
		{"past flushBytes", 8, 10 << 10},
		{"past MaxFrame", 16, 600 << 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			str := strings.Repeat("s", c.size)
			out := make(chan spe.Batch, c.runs)
			var runs [][]tuple.Tuple
			for i := range c.runs {
				run := []tuple.Tuple{tuple.New(int64(i), tuple.String_(str), tuple.Int(int64(i)))}
				runs = append(runs, run)
				out <- spe.Batch{Rows: run}
			}
			close(out)
			frames, largest, recycled := parkedPump(t, out)
			if len(frames) != c.runs+1 {
				t.Fatalf("%d frames, want %d batch frames and End", len(frames), c.runs)
			}
			for i, f := range frames[:c.runs] {
				if f.Kind != KindBatch || !sameRows(f.Rows, runs[i]) {
					t.Fatalf("frame %d: %s with %d rows, want run %d alone", i, f.Kind, len(f.Rows), i)
				}
			}
			if largest > MaxFrame || len(recycled) != c.runs {
				t.Fatalf("largest body %d bytes (MaxFrame %d), %d runs recycled of %d", largest, MaxFrame, len(recycled), c.runs)
			}
		})
	}
}

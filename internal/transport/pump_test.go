package transport

import (
	"bytes"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"spear/internal/leakcheck"
	"spear/internal/spe"
	"spear/internal/tuple"
)

// pumpGolden is what fabricNode.pump puts on the link, frame after
// frame with length prefixes, for the input of TestPumpFrameBytes under
// protocol version 4. The control frames (watermark, barrier, end) are
// the bytes written since before runs replaced per-tuple message
// batches on the engine's channels; the two batch frames are column
// images — the first ragged (widths 1, 2, 0: a float column, an int
// column) with a step back in time (Ts deltas two bytes wide), the
// second a string column and a bool/float column through the escape
// arm.
const pumpGolden = "" +
	"2a0000000401020003d00f020200db070001020002000000000000e03f000000" +
	"00000008c00107000000000000000c00000005020200e8030000000000002700" +
	"00000403020102a01f02e8030303066275732d31370000040100000000000000" +
	"029c7500883ce4377e0c0000000604020109000000000000000c000000050502" +
	"01ffffffffffffff7f03000000070602"

// TestPumpFrameBytes pins the bytes the source side of the shuffle
// writes: one batch frame per run, a control frame
// per control, End when the outbox closes — sequence numbers, senders
// and tuple encoding included. The link has no connection, so every
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
	out <- spe.Batch{Sender: 0, Rows: []tuple.Tuple{
		tuple.New(1_000, tuple.Float(0.5)),
		tuple.New(1_001, tuple.Float(-3), tuple.Int(7)),
		tuple.New(-5),
	}}
	out <- spe.Batch{Sender: 0, Ctl: spe.Watermark, WM: 1_000}
	out <- spe.Batch{Sender: 1, Rows: []tuple.Tuple{
		tuple.New(2_000, tuple.String_("bus-17"), tuple.Bool(true)),
		tuple.New(2_500, tuple.String_(""), tuple.Float(1e300)),
	}}
	out <- spe.Batch{Sender: 1, Ctl: spe.Barrier, Barrier: 9}
	out <- spe.Batch{Sender: 1, Ctl: spe.Watermark, WM: 1<<63 - 1}
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

// TestPumpWatermarkRidesTheNextWrite pins the pump's flush rule for a
// watermark, counting the writes that reach the source's connection
// (one a frame: the counting wrapper hides the socket's writev). A
// watermark with runs behind it in the outbox queues like a run and
// leaves in the write of the last of them; a watermark that is last in
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
	out <- spe.Batch{Ctl: spe.Watermark, WM: 1}
	out <- spe.Batch{Rows: run}
	out <- spe.Batch{Rows: run}
	n.wg.Add(1)
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		n.pump(0, out)
	}()

	writes := []int64{<-left, <-left, <-left}
	if want := []int64{0, 0, 4}; !slices.Equal(writes, want) {
		t.Fatalf("writes when each run left: %v, want %v (the watermark waits for the runs behind it)", writes, want)
	}
	waitFor(t, "the first four frames", func() bool { return hb.count() == 4 })

	out <- spe.Batch{Rows: run}
	out <- spe.Batch{Ctl: spe.Watermark, WM: 2}
	waitFor(t, "a watermark last in the outbox", func() bool { return hb.count() == 6 })
	close(out)
	<-pumped
	waitFor(t, "End", func() bool { return hb.count() == 7 })
	hb.mu.Lock()
	defer hb.mu.Unlock()
	for i, want := range []Kind{KindBatch, KindWatermark, KindBatch, KindBatch, KindBatch, KindWatermark, KindEnd} {
		if f := hb.frames[i]; f.Seq != uint64(i+1) || f.Kind != want {
			t.Fatalf("frame %d: seq %d kind %s, want %s", i, f.Seq, f.Kind, want)
		}
	}
}

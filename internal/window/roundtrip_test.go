package window_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"spear/internal/checkpoint/checkpointtest"
	"spear/internal/tuple"
	"spear/internal/window"
)

// TestRoundTripSingleBuffer is the buffer's checkpoint round trip: drive
// a stream (1200 tuples shuffled within a lag of 20 ticks, a watermark at
// that lag after every 50th) through a buffer, snapshot it mid-stream,
// restore the blob into a fresh buffer, and require the two to hold the
// same state (checkpointtest.StateDiff), in the time and the count
// domain. The package is window_test because checkpointtest imports
// window.
func TestRoundTripSingleBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ts := make([]tuple.Tuple, 1200)
	for i := range ts {
		ts[i] = tuple.New(int64(i), tuple.Float(rng.NormFloat64()))
	}
	for i := 0; i+20 <= len(ts); i += 20 {
		rng.Shuffle(20, func(a, b int) { ts[i+a], ts[i+b] = ts[i+b], ts[i+a] })
	}
	live, restored := map[string]*window.SingleBuffer{}, map[string]*window.SingleBuffer{}
	for name, spec := range map[string]window.Spec{
		"time":  {Domain: window.TimeDomain, Range: 200, Slide: 50},
		"count": {Domain: window.CountDomain, Range: 200, Slide: 50},
	} {
		mk := func() *window.SingleBuffer {
			m, err := window.NewSingleBuffer(spec)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := mk()
		for i, tup := range ts[:len(ts)/2+13] {
			m.OnTuple(tup)
			if (i+1)%50 == 0 {
				m.OnWatermark(int64(i + 1 - 20))
			}
		}
		blob, err := m.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		r := mk()
		if err := r.RestoreState(blob); err != nil {
			t.Fatal(err)
		}
		live[name], restored[name] = m, r
	}
	for _, d := range checkpointtest.StateDiff(live, restored, nil) {
		t.Error(d)
	}
}

// singleBufferBlob writes the 0x51 layout by hand: the cursor, the three
// slots a spilling buffer once used (spilled count, segment sequence,
// chunk count), the peak and the buffered rows.
func singleBufferBlob(c window.Cursor, spilled int64, segSeq, segChunks uint64, peak int, rows []tuple.Tuple) []byte {
	dst := []byte{0x51}
	dst = tuple.AppendI64(dst, c.Seq)
	dst = tuple.AppendI64(dst, c.MaxPos)
	dst = tuple.AppendBool(dst, c.Started)
	dst = tuple.AppendBool(dst, c.Fired)
	dst = tuple.AppendI64(dst, int64(c.NextFire))
	dst = tuple.AppendI64(dst, c.Late)
	dst = tuple.AppendI64(dst, spilled)
	dst = tuple.AppendUvar(dst, segSeq)
	dst = tuple.AppendUvar(dst, segChunks)
	dst = tuple.AppendUvar(dst, uint64(peak))
	return tuple.AppendBlob(dst, tuple.EncodeBatch(rows))
}

// TestSingleBufferSpill: the buffer never spills. It writes the three
// spill slots of its layout as zero, and a blob with any of them set
// names tuples in S that no fire could fetch, so RestoreState refuses it
// as corrupt.
func TestSingleBufferSpill(t *testing.T) {
	spec := window.Sliding(40, 10)
	m, err := window.NewSingleBuffer(spec)
	if err != nil {
		t.Fatal(err)
	}
	var rows []tuple.Tuple
	for i := int64(0); i < 25; i++ {
		rows = append(rows, tuple.New(i, tuple.Float(float64(i))))
		m.OnTuple(rows[i])
	}
	blob, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// 25 tuples at 0..24 and no watermark: the stream was anchored at the
	// oldest window of position 0 and nothing has closed.
	first, _ := spec.Assign(0)
	c := window.Cursor{Started: true, NextFire: first, Seq: 25, MaxPos: 24}
	if want := singleBufferBlob(c, 0, 0, 0, m.PeakMemUsage(), rows); !bytes.Equal(blob, want) {
		t.Fatalf("SnapshotState wrote %x, want the 0x51 layout %x", blob, want)
	}
	for name, bad := range map[string][]byte{
		"spilled count": singleBufferBlob(c, 3, 0, 0, m.PeakMemUsage(), rows),
		"segSeq":        singleBufferBlob(c, 0, 1, 0, m.PeakMemUsage(), rows),
		"chunk count":   singleBufferBlob(c, 0, 0, 2, m.PeakMemUsage(), rows),
	} {
		r, err := window.NewSingleBuffer(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RestoreState(bad); !errors.Is(err, tuple.ErrCorrupt) {
			t.Errorf("%s set: RestoreState = %v, want ErrCorrupt", name, err)
		}
	}
}

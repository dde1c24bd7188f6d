package window_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"spear/internal/checkpoint/checkpointtest"
	"spear/internal/core"
	"spear/internal/tuple"
	"spear/internal/window"
)

// TestRoundTripSingleBuffer is the Storm buffer's checkpoint round
// trip in both domains: drive a stream (1200 tuples shuffled within a
// lag of 20 ticks, a watermark at that lag after every 50th) through the
// Storm manager, snapshot it mid-stream, restore the blob into a fresh
// one, and require the two to hold the same state
// (checkpointtest.StateDiff). The stream reaches the manager in runs of
// one and in runs of 25, and the two blobs, taken at the same stream
// point, must be the same bytes.
func TestRoundTripSingleBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ts := make([]tuple.Tuple, 1200)
	for i := range ts {
		ts[i] = tuple.New(int64(i), tuple.Float(rng.NormFloat64()))
	}
	for i := 0; i+20 <= len(ts); i += 20 {
		rng.Shuffle(20, func(a, b int) { ts[i+a], ts[i+b] = ts[i+b], ts[i+a] })
	}
	live, restored := map[string]*core.ExactManager{}, map[string]*core.ExactManager{}
	for name, spec := range map[string]window.Spec{
		"time":  {Domain: window.TimeDomain, Range: 200, Slide: 50},
		"count": {Domain: window.CountDomain, Range: 200, Slide: 50},
	} {
		var blobs [][]byte
		for _, size := range []int{1, 25} {
			m, _ := storm(t, spec)
			in := ts[:len(ts)/2+13]
			for i := 0; i < len(in); i += size {
				j := min(i+size, len(in))
				feedRuns(t, m, in[i:j], size)
				if j/50 > i/50 {
					watermark(t, m, int64(j/50*50-20))
				}
			}
			blob, err := m.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			r, _ := storm(t, spec)
			if err := r.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%d", name, size)
			live[key], restored[key] = m, r
			blobs = append(blobs, blob)
		}
		if !bytes.Equal(blobs[0], blobs[1]) {
			t.Errorf("%s: the blob after runs of 25 differs from the one after runs of one", name)
		}
	}
	allow := map[string]string{
		"shell.cfg.Metrics": "telemetry, outside the checkpoint domain",
		"shell.cols":        "the row lane's scratch columns: dead between calls",
	}
	for _, d := range checkpointtest.StateDiff(live, restored, allow) {
		t.Error(d)
	}
}

// stormBlob writes the Storm buffer's layout by hand: the shell's header
// for a manager that archives nothing and holds no budget, then the
// buffered rows' column image.
func stormBlob(c window.Cursor, rows []tuple.Tuple) []byte {
	dst := tuple.AppendBool([]byte{'c'}, false)
	dst = tuple.AppendBool(dst, c.Started)
	dst = tuple.AppendBool(dst, c.Fired)
	dst = tuple.AppendI64(dst, int64(c.NextFire))
	dst = tuple.AppendI64(dst, c.Seq)
	dst = tuple.AppendI64(dst, c.MaxPos)
	dst = tuple.AppendI64(dst, c.Late)
	dst = tuple.AppendUvar(dst, 0)     // the budget
	dst = tuple.AppendBool(dst, false) // shedding off
	dst = tuple.AppendUvar(dst, 0)     // the archive's pane table, empty
	return tuple.AppendColumns(dst, rows)
}

// TestSingleBufferSpill: the Storm buffer never spills, and its layout
// has no spill slots. 'Q' kept three (spilled count, segment sequence,
// chunk count) and its rows in a retired row codec, and 'R' the cursor
// in another order and the buffer's peak; both went inside 'E'. 'b'
// carried a shed count and an archive floor no restore read.
// RestoreState refuses each of the four tags as corrupt, whatever
// follows it.
func TestSingleBufferSpill(t *testing.T) {
	spec := window.Sliding(40, 10)
	m, _ := storm(t, spec)
	var rows []tuple.Tuple
	for i := int64(0); i < 25; i++ {
		rows = append(rows, tuple.New(i, tuple.Float(float64(i))))
	}
	feedRuns(t, m, rows, len(rows))
	blob, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// 25 tuples at 0..24 and no watermark: the stream was anchored at the
	// oldest window of position 0 and nothing has closed.
	first, _ := spec.Assign(0)
	c := window.Cursor{Started: true, NextFire: first, Seq: 25, MaxPos: 24}
	if want := stormBlob(c, rows); !bytes.Equal(blob, want) {
		t.Fatalf("SnapshotState wrote %x, want the 'c' layout %x", blob, want)
	}
	r, _ := storm(t, spec)
	for _, tag := range []byte{'E', 'Q', 'R', 'b'} {
		if err := r.RestoreState(append([]byte{tag}, blob[1:]...)); !errors.Is(err, tuple.ErrCorrupt) {
			t.Errorf("%q blob: RestoreState = %v, want ErrCorrupt", tag, err)
		}
	}
}

package window_test

import (
	"math/rand"
	"testing"

	"spear/internal/checkpoint/checkpointtest"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// TestRoundTripSingleBuffer is the buffer's checkpoint round trip: drive
// a stream (1200 tuples shuffled within a lag of 20 ticks, a watermark at
// that lag after every 50th) through a buffer small enough to spill,
// snapshot it mid-stream, restore the blob into a fresh buffer over the
// same store, rewind, and require the two to hold the same state
// (checkpointtest.StateDiff), in the time and the count domain. The
// package is window_test because checkpointtest imports window.
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
		store := storage.NewMemStore()
		mk := func() *window.SingleBuffer {
			m, err := window.NewSingleBuffer(window.Config{Spec: spec, BudgetBytes: 4 << 10, Store: store, Key: name})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := mk()
		for i, tup := range ts[:len(ts)/2+13] {
			if _, err := m.OnTuple(tup); err != nil {
				t.Fatal(err)
			}
			if (i+1)%50 == 0 {
				if _, err := m.OnWatermark(int64(i + 1 - 20)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if m.Spilled() == 0 {
			t.Fatalf("%s: nothing spilled by the snapshot", name)
		}
		blob, err := m.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		r := mk()
		if err := r.RestoreState(blob); err != nil {
			t.Fatal(err)
		}
		if err := r.RewindStore(); err != nil {
			t.Fatal(err)
		}
		live[name], restored[name] = m, r
	}
	for _, d := range checkpointtest.StateDiff(live, restored, nil) {
		t.Error(d)
	}
}

package spear

import (
	"strings"
	"testing"
	"time"

	"spear/internal/storage"
)

// TestCheckpointStopAndResume exercises the public fault-tolerance API:
// a query checkpointing into its spill store stops partway through the
// stream, and a second query with Recover() resumes from the last
// committed checkpoint. The union of both legs' windows must equal an
// uninterrupted reference run exactly.
func TestCheckpointStopAndResume(t *testing.T) {
	const (
		n       = 2000 // seconds of stream
		winSec  = 100  // tumbling window length
		stopAt  = 1100 // leg 1 sees tuples [0, stopAt)
		ckptSec = 400  // checkpoint cadence in tuples
	)
	mk := func(lo, hi int) []Tuple {
		var ts []Tuple
		for i := lo; i < hi; i++ {
			ts = append(ts, NewTuple(int64(i)*int64(time.Second), Float(float64(i%50))))
		}
		return ts
	}
	build := func(src Source, store storage.SpillStore) *Query {
		return NewQuery("ckptq").
			Source(src).
			TumblingWindow(winSec*time.Second).
			Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
			BudgetTuples(64).
			Error(0.05, 0.95).
			Seed(7).
			SpillStore(store)
	}

	// Uninterrupted reference.
	ref := &sinkBuf{}
	if _, err := build(FromSlice(mk(0, n)), storage.NewMemStore()).Run(ref.add); err != nil {
		t.Fatal(err)
	}
	refRes := ref.sorted()
	if len(refRes) != n/winSec {
		t.Fatalf("reference: %d windows, want %d", len(refRes), n/winSec)
	}

	// Leg 1: the stream "ends" (process dies) after stopAt tuples.
	store := storage.NewMemStore()
	tel1 := NewInstruments()
	leg1 := &sinkBuf{}
	if _, err := build(FromSlice(mk(0, stopAt)), store).
		CheckpointEvery(ckptSec, 0).
		ObserveWith(tel1).
		Run(leg1.add); err != nil {
		t.Fatal(err)
	}
	if got := tel1.Checkpoint().Completed.Load(); got < 1 {
		t.Fatalf("leg 1 completed %d checkpoints, want >= 1", got)
	}
	if tel1.Checkpoint().SnapshotBytes.Load() == 0 || tel1.Checkpoint().LastBytes.Load() == 0 {
		t.Fatal("leg 1: no snapshot bytes accounted")
	}

	// Leg 2: a fresh query over the full stream recovers and resumes.
	tel2 := NewInstruments()
	leg2 := &sinkBuf{}
	if _, err := build(FromSlice(mk(0, n)), store).
		CheckpointEvery(ckptSec, 0).
		Recover().
		ObserveWith(tel2).
		Run(leg2.add); err != nil {
		t.Fatal(err)
	}
	if tel2.Checkpoint().RecoveryTime.Load() == 0 {
		t.Fatal("leg 2: recovery time gauge not set")
	}
	// Recovery skipped the prefix: leg 2 must emit fewer windows than
	// the reference (it starts from the checkpointed offset, not 0).
	if len(leg2.sorted()) >= len(refRes) {
		t.Fatalf("leg 2 emitted %d windows; recovery did not skip the prefix", len(leg2.sorted()))
	}

	// Union of the two legs == reference, with overlap agreeing.
	type key struct{ start int64 }
	merged := map[key]Result{}
	for _, r := range leg1.sorted() {
		merged[key{r.Start}] = r
	}
	for _, r := range leg2.sorted() {
		if prev, dup := merged[key{r.Start}]; dup {
			if prev.Scalar != r.Scalar || prev.N != r.N || prev.Mode != r.Mode {
				t.Errorf("window @%d diverged across legs: %+v vs %+v", r.Start, prev, r)
			}
		}
		merged[key{r.Start}] = r
	}
	if len(merged) != len(refRes) {
		t.Fatalf("merged %d windows, want %d", len(merged), len(refRes))
	}
	for _, w := range refRes {
		g, ok := merged[key{w.Start}]
		if !ok {
			t.Errorf("window @%d missing from merged output", w.Start)
			continue
		}
		if g.Scalar != w.Scalar || g.N != w.N || g.SampleN != w.SampleN || g.Mode != w.Mode {
			t.Errorf("window @%d: got %+v, want %+v", w.Start, g, w)
		}
	}
}

func TestCheckpointValidation(t *testing.T) {
	src := FromSlice([]Tuple{NewTuple(0, Float(1))})
	sink := func(int, Result) {}
	for name, q := range map[string]*Query{
		"negative tuples":   NewQuery("v").Source(src).TumblingWindow(time.Second).Count().CheckpointEvery(-1, 0),
		"negative interval": NewQuery("v").Source(src).TumblingWindow(time.Second).Count().CheckpointEvery(0, -time.Second),
		"no trigger":        NewQuery("v").Source(src).TumblingWindow(time.Second).Count().CheckpointEvery(0, 0),
	} {
		if _, err := q.Run(sink); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), "checkpoint") {
			t.Errorf("%s: error %v does not mention checkpoints", name, err)
		}
	}
}

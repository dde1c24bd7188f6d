package spe

import (
	"testing"

	"spear/internal/tuple"
)

// drain pulls every remaining tuple from a spout.
func drainTuples(s Spout) []tuple.Tuple {
	var out []tuple.Tuple
	for {
		t, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

func seqTuples(lo, hi, step int64) []tuple.Tuple {
	var ts []tuple.Tuple
	for i := lo; i < hi; i += step {
		ts = append(ts, tuple.New(i, tuple.Int(i)))
	}
	return ts
}

// TestDisorderSpoutSeekIdentity: the shuffled emission order is a
// deterministic function of (inner, horizon, seed), so SeekTo(k) must
// reproduce the exact suffix of a fresh run.
func TestDisorderSpoutSeekIdentity(t *testing.T) {
	mk := func() *DisorderSpout {
		return NewDisorderSpout(NewSliceSpout(seqTuples(0, 50, 1)), 7, 42)
	}
	ref := drainTuples(mk())
	if len(ref) != 50 {
		t.Fatalf("reference drained %d tuples, want 50", len(ref))
	}
	for k := int64(0); k <= int64(len(ref))+2; k++ {
		d := mk()
		for i := 0; i < 11 && i < int(k); i++ {
			d.Next() // partial prefix: seek must rewind, not skip
		}
		if err := d.SeekTo(k); err != nil {
			t.Fatalf("SeekTo(%d): %v", k, err)
		}
		got := drainTuples(d)
		want := ref[min(int(k), len(ref)):]
		if len(got) != len(want) {
			t.Fatalf("SeekTo(%d): drained %d tuples, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Ts != want[i].Ts {
				t.Fatalf("SeekTo(%d): tuple %d has Ts %d, want %d", k, i, got[i].Ts, want[i].Ts)
			}
		}
	}
}

func TestDisorderSpoutSeekErrors(t *testing.T) {
	d := NewDisorderSpout(FuncSpout(func() (tuple.Tuple, bool) { return tuple.Tuple{}, false }), 3, 1)
	if err := d.SeekTo(1); err == nil {
		t.Fatal("SeekTo over a non-seekable inner source must fail fast")
	}
	seekable := NewDisorderSpout(NewSliceSpout(seqTuples(0, 4, 1)), 3, 1)
	if err := seekable.SeekTo(-2); err == nil {
		t.Error("negative offset accepted")
	}
}

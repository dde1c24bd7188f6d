package col

import (
	"math"
	"testing"

	"spear/internal/leakcheck"
	"spear/internal/tuple"
)

func row(ts int64, vals ...tuple.Value) tuple.Tuple {
	return tuple.Tuple{Ts: ts, Vals: vals}
}

// requireRows fails unless got equals want: timestamps, field counts
// and every value through Value.Equal (bit-exact on float payloads).
func requireRows(t *testing.T, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Ts != want[i].Ts {
			t.Fatalf("row %d: Ts=%d want %d", i, got[i].Ts, want[i].Ts)
		}
		if len(got[i].Vals) != len(want[i].Vals) {
			t.Fatalf("row %d: %d vals, want %d", i, len(got[i].Vals), len(want[i].Vals))
		}
		for j := range want[i].Vals {
			if !got[i].Vals[j].Equal(want[i].Vals[j]) {
				t.Fatalf("row %d field %d: %v want %v", i, j, got[i].Vals[j], want[i].Vals[j])
			}
		}
	}
}

// checkRoundTrip asserts SetRows→ToRows is a deep copy of rows: equal
// to them, with no Vals array shared with the run.
func checkRoundTrip(t *testing.T, b *ColumnBatch, rows []tuple.Tuple) {
	t.Helper()
	b.SetRows(rows)
	got := b.ToRows(nil)
	requireRows(t, got, rows)
	for i := range rows {
		if len(rows[i].Vals) > 0 && &got[i].Vals[0] == &rows[i].Vals[0] {
			t.Fatalf("row %d: ToRows shares the run's Vals", i)
		}
	}
}

func TestRoundTripUniformFloat(t *testing.T) {
	rows := make([]tuple.Tuple, 100)
	for i := range rows {
		rows[i] = row(int64(i), tuple.Float(float64(i)/3), tuple.Int(int64(i)))
	}
	b := Get()
	defer Put(b)
	checkRoundTrip(t, b, rows)
}

func TestRoundTripMixedKindsAndNulls(t *testing.T) {
	rows := []tuple.Tuple{
		row(1, tuple.Float(1.5), tuple.String_("a")),
		row(2, tuple.Int(7)),                                 // short row: field 1 missing
		row(3, tuple.Value{}, tuple.String_("b")),            // invalid field
		row(4, tuple.Float(math.NaN()), tuple.String_("a")),  // NaN payload
		row(5, tuple.Bool(true), tuple.String_("")),          // bool among floats
		row(6, tuple.Float(math.Inf(-1)), tuple.Int(-1<<62)), // int among strings
		row(7), // empty row
		row(8, tuple.Float(-0.0), tuple.String_("αβγ\x00\xff")), // negative zero, odd bytes
	}
	b := Get()
	defer Put(b)
	checkRoundTrip(t, b, rows)
}

func TestRoundTripEmpty(t *testing.T) {
	b := Get()
	defer Put(b)
	checkRoundTrip(t, b, nil)
	if b.Rows() != nil {
		t.Fatalf("empty batch: Rows=%v", b.Rows())
	}
}

// TestReuseNoAlloc pins the pooling contract: refilling a warmed batch
// allocates nothing.
func TestReuseNoAlloc(t *testing.T) {
	rows := make([]tuple.Tuple, 64)
	for i := range rows {
		rows[i] = row(int64(i), tuple.Float(float64(i)), tuple.String_("k"))
	}
	b := Get()
	defer Put(b)
	allocs := testing.AllocsPerRun(100, func() {
		b.SetRows(rows)
		if len(b.Rows()) != len(rows) {
			t.Fatal("SetRows lost rows")
		}
	})
	if allocs > 0 {
		t.Fatalf("SetRows on a warmed batch allocates %.1f/op, want 0", allocs)
	}
}

// TestColumnBatchIsLockFree holds the recycling path and filling a
// batch, each documented lock-free, to that contract.
func TestColumnBatchIsLockFree(t *testing.T) {
	rows := []tuple.Tuple{
		row(1, tuple.Float(1.5), tuple.String_("a")),
		row(2, tuple.Int(7), tuple.String_("b")),
	}
	leakcheck.NoBlocking(t, func(_, _ int) {
		b := Get()
		b.SetRows(rows)
		b.Reset()
		Put(b)
	})
}

// TestWidthGrowsAndResets refills a batch with a narrower run after a
// wider one: nothing of the wider run may leak into the narrower one's
// copy.
func TestWidthGrowsAndResets(t *testing.T) {
	b := Get()
	defer Put(b)
	checkRoundTrip(t, b, []tuple.Tuple{row(1, tuple.Int(1), tuple.Int(2), tuple.Int(3))})
	checkRoundTrip(t, b, []tuple.Tuple{row(2, tuple.Float(5))})
}

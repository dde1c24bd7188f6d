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

// checkRoundTrip asserts SetRows→ToRows reconstructs rows exactly:
// timestamps, field counts, and every value through Value.Equal.
func checkRoundTrip(t *testing.T, b *ColumnBatch, rows []tuple.Tuple) {
	t.Helper()
	b.SetRows(rows)
	got := b.ToRows(nil)
	if len(got) != len(rows) {
		t.Fatalf("ToRows: %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i].Ts != rows[i].Ts {
			t.Fatalf("row %d: Ts=%d want %d", i, got[i].Ts, rows[i].Ts)
		}
		if len(got[i].Vals) != len(rows[i].Vals) {
			t.Fatalf("row %d: %d vals, want %d", i, len(got[i].Vals), len(rows[i].Vals))
		}
		for j := range rows[i].Vals {
			if !got[i].Vals[j].Equal(rows[i].Vals[j]) {
				t.Fatalf("row %d field %d: %v want %v", i, j, got[i].Vals[j], rows[i].Vals[j])
			}
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

	if got := b.Floats(0); len(got) != 100 {
		t.Fatalf("Floats(0) len=%d", len(got))
	}
	if got := b.Ints(1); len(got) != 100 || got[7] != 7 {
		t.Fatalf("Ints(1) = %v...", got[:8])
	}
	// Int column widened to float64 must match Value.AsFloat bits.
	f := b.Floats(1)
	for i := range rows {
		if math.Float64bits(f[i]) != math.Float64bits(rows[i].Vals[1].AsFloat()) {
			t.Fatalf("widened int %d diverges from AsFloat", i)
		}
	}
}

func TestRoundTripMixedKindsAndNulls(t *testing.T) {
	rows := []tuple.Tuple{
		row(1, tuple.Float(1.5), tuple.String_("a")),
		row(2, tuple.Int(7)), // short row: column 1 missing
		row(3, tuple.Value{}, tuple.String_("b")),              // invalid field
		row(4, tuple.Float(math.NaN()), tuple.String_("a")),    // NaN payload
		row(5, tuple.Bool(true), tuple.String_("")),            // kind mismatch in col 0
		row(6, tuple.Float(math.Inf(-1)), tuple.Int(-1<<62)),   // mismatch in col 1
		row(7),                                                 // empty row
		row(8, tuple.Float(-0.0), tuple.String_("αβγ\x00\xff")), // negative zero, odd bytes
	}
	b := Get()
	defer Put(b)
	checkRoundTrip(t, b, rows)

	// Column 0 saw a mismatch and an invalid: fast accessor refuses.
	if b.Floats(0) != nil {
		t.Fatal("Floats(0) should be nil on a column with nulls/overflow")
	}
	if b.Nulls(0) == 0 {
		t.Fatal("Nulls(0) should be nonzero")
	}
}

func TestRoundTripEmpty(t *testing.T) {
	b := Get()
	defer Put(b)
	checkRoundTrip(t, b, nil)
	if b.Len() != 0 || b.Width() != 0 {
		t.Fatalf("empty batch: Len=%d Width=%d", b.Len(), b.Width())
	}
	if b.Floats(0) != nil {
		t.Fatal("Floats on empty batch should be nil")
	}
}

func TestStringsDictionaryInterned(t *testing.T) {
	rows := []tuple.Tuple{
		row(1, tuple.String_("x")),
		row(2, tuple.String_("y")),
		row(3, tuple.String_("x")),
	}
	b := Get()
	defer Put(b)
	b.SetRows(rows)
	codes, dict, ok := b.Strings(0)
	if !ok {
		t.Fatal("Strings(0) not ok")
	}
	if len(codes) != 3 || codes[0] != codes[2] || codes[0] == codes[1] {
		t.Fatalf("codes = %v", codes)
	}
	if dict[codes[1]] != "y" {
		t.Fatalf("dict[%d] = %q", codes[1], dict[codes[1]])
	}
	// The dictionary persists across batches: same key, same code.
	b.SetRows(rows[:1])
	codes2, _, _ := b.Strings(0)
	if codes2[0] != codes[0] {
		t.Fatalf("dictionary not persistent: %d vs %d", codes2[0], codes[0])
	}
}

// TestReuseNoAlloc pins the pooling contract: refilling a warmed batch
// with same-shape rows allocates nothing.
func TestReuseNoAlloc(t *testing.T) {
	rows := make([]tuple.Tuple, 64)
	for i := range rows {
		rows[i] = row(int64(i), tuple.Float(float64(i)), tuple.String_("k"))
	}
	b := Get()
	defer Put(b)
	b.SetRows(rows) // warm buffers and dictionary
	allocs := testing.AllocsPerRun(100, func() {
		b.SetRows(rows)
		if b.Floats(0) == nil {
			t.Fatal("Floats(0) nil")
		}
		if _, _, ok := b.Strings(1); !ok {
			t.Fatal("Strings(1) not ok")
		}
	})
	if allocs > 0 {
		t.Fatalf("SetRows on warmed batch allocates %.1f/op, want 0", allocs)
	}
}

// TestColumnBatchIsLockFree holds the recycling path and both ways of
// filling a batch, each documented lock-free, to that contract.
func TestColumnBatchIsLockFree(t *testing.T) {
	rows := []tuple.Tuple{
		row(1, tuple.Float(1.5), tuple.String_("a")),
		row(2, tuple.Int(7), tuple.Bool(true)),
	}
	leakcheck.NoBlocking(t, func(_, _ int) {
		b := Get()
		b.SetRows(rows)
		b.Reset()
		for _, r := range rows {
			b.AppendRow(r)
		}
		Put(b)
	})
}

func TestWidthGrowsAndResets(t *testing.T) {
	b := Get()
	defer Put(b)
	b.SetRows([]tuple.Tuple{row(1, tuple.Int(1), tuple.Int(2), tuple.Int(3))})
	if b.Width() != 3 {
		t.Fatalf("Width=%d want 3", b.Width())
	}
	// Narrower batch: stale columns from the wider batch must not leak.
	checkRoundTrip(t, b, []tuple.Tuple{row(2, tuple.Float(5))})
	if b.Floats(0) == nil {
		t.Fatal("Floats(0) nil after refill")
	}
	if b.Ints(1) != nil {
		t.Fatal("stale column 1 leaked")
	}
}

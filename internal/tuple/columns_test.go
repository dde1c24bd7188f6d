package tuple

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// columnRuns are the shapes the column image must carry exactly: every
// packed arm, the escape arm, both width encodings and the timestamp
// delta's corner.
func columnRuns() map[string][]Tuple {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef) // NaN with payload bits
	runs := tsWidthRuns()
	maps.Copy(runs, map[string][]Tuple{
		"empty":        {},
		"single row":   {New(7, Int(1), String_("x"))},
		"zero width":   {New(1), New(2), New(3)},
		"float column": {New(10, Float(0.5)), New(11, Float(-3)), New(12, Float(1e300))},
		"float specials": {
			New(1, Float(nan)), New(2, Float(math.Inf(1))), New(3, Float(math.Inf(-1))),
			New(4, Float(math.Copysign(0, -1))),
		},
		"int column":              {New(1, Int(math.MinInt64)), New(2, Int(-1)), New(3, Int(math.MaxInt64))},
		"bool column":             {New(1, Bool(true)), New(2, Bool(false)), New(3, Bool(true))},
		"string column":           {New(1, String_("bus-17")), New(2, String_("")), New(3, String_("αβγ\x00\xff"))},
		"four kinds":              {New(1, Int(-5), Float(math.Pi), String_("k"), Bool(true)), New(2, Int(6), Float(2), String_(""), Bool(false))},
		"mixed kinds":             {New(1, Int(1), String_("a")), New(2, Float(2), String_("b")), New(3, Bool(true), String_("c"))},
		"ragged":                  {New(1, Float(1)), New(2, Float(2), Int(7)), New(3), New(4, Float(4), Int(8), String_("z"))},
		"ragged, first row empty": {New(1), New(2, Bool(true))},
		"ts wraps":                {New(math.MinInt64, Int(1)), New(math.MaxInt64, Int(2)), New(0, Int(3)), New(math.MinInt64, Int(4))},
		"ts descends":             {New(1_000_000), New(5), New(-5), New(-1_000_000)},
		"odd bool":                {New(1, Value{p: tag(KindBool), n: 2}), New(2, Bool(true))},
	})
	return runs
}

// tsWidthRuns is a run per Ts delta width 1…8: from an absolute
// nanosecond timestamp, the largest step forward w bytes hold after
// zig-zag, the largest step back, and a tick, so that the wide delta is
// neither first nor last.
func tsWidthRuns() map[string][]Tuple {
	runs := make(map[string][]Tuple)
	for w := 1; w <= 8; w++ {
		step := int64(1)<<(8*w-1) - 1
		t0 := int64(1_600_000_000_000_000_000)
		runs[fmt.Sprintf("ts width %d", w)] = []Tuple{
			New(t0, Float(1)), New(t0+1, Float(2)), New(t0+1+step, Float(3)),
			New(t0, Float(4)), New(t0+1, Float(5)),
		}
	}
	return runs
}

// sameRows compares by Value.Equal (floats by their bits) and treats an
// empty Vals and a nil one alike.
func sameRows(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Ts != b[i].Ts || len(a[i].Vals) != len(b[i].Vals) {
			return false
		}
		for j := range a[i].Vals {
			if !a[i].Vals[j].Equal(b[i].Vals[j]) {
				return false
			}
		}
	}
	return true
}

// TestColumnsRoundTrip is the image's property: DecodeColumns of
// AppendColumns is Value.Equal-identical, over the fixed shapes and a
// few hundred random runs, appended behind rows already in dst, and
// every decoded Vals is cap-limited to its own values.
func TestColumnsRoundTrip(t *testing.T) {
	runs := columnRuns()
	r := rand.New(rand.NewSource(26))
	for i := 0; i < 300; i++ {
		run := make([]Tuple, r.Intn(9))
		uniform := r.Intn(2) == 0
		shape := randomTuple(r)
		for k := range run {
			run[k] = randomTuple(r)
			if uniform { // one schema, as a run off a stream has
				run[k].Vals = append([]Value(nil), shape.Vals...)
			}
			if r.Intn(2) == 0 {
				run[k].Ts = int64(k) * 1000
			}
		}
		runs[fmt.Sprintf("random %d", i)] = run
	}
	for name, rows := range runs {
		enc := AppendColumns([]byte("prefix"), rows)[len("prefix"):]
		head := []Tuple{New(99, Int(99))}
		got, err := DecodeColumns(head, enc)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !sameRows(got[:1], head) || !sameRows(got[1:], rows) {
			t.Errorf("%s: decoded %v, want %v", name, got[1:], rows)
		}
		for i, row := range got[1:] {
			if len(row.Vals) != cap(row.Vals) {
				t.Errorf("%s: row %d Vals len %d cap %d, want them equal", name, i, len(row.Vals), cap(row.Vals))
			}
		}
		if again := AppendColumns(nil, got[1:]); !bytes.Equal(again, enc) {
			t.Errorf("%s: re-encoding differs\n 1: %x\n 2: %x", name, enc, again)
		}
	}
}

// TestColumnsPacks pins the sizes the format promises: a kind byte a
// column, a byte a timestamp that steps by less than 64, eight bytes a
// number — that one stray kind costs the column its packing, not the
// image — and that the Ts column is as wide as its largest step, not as
// its first timestamp.
func TestColumnsPacks(t *testing.T) {
	rows := make([]Tuple, 64)
	for i := range rows {
		rows[i] = New(int64(1000+i), Float(float64(i)))
	}
	// count, 2-byte base, Ts width, 63 one-byte deltas, width, kind, payload.
	if got, want := len(AppendColumns(nil, rows)), 1+2+1+63+1+1+64*8; got != want {
		t.Errorf("64 (ts, float) rows take %d bytes, want %d", got, want)
	}
	rows[40].Vals = []Value{Int(40)}
	if got, want := len(AppendColumns(nil, rows)), 1+2+1+63+1+1+64*9; got != want {
		t.Errorf("with one int among the floats: %d bytes, want %d (escape arm)", got, want)
	}
	for w := 1; w <= 8; w++ {
		rows := tsWidthRuns()[fmt.Sprintf("ts width %d", w)]
		enc := AppendColumns(nil, rows)
		// count, 9-byte base, Ts width, 4 deltas, width, kind, payload.
		if got, want := len(enc), 1+9+1+4*w+1+1+5*8; got != want || int(enc[10]) != w {
			t.Errorf("steps of %d bytes: image of %d bytes with Ts width %d, want %d", w, got, enc[10], want)
		}
	}
}

// TestColumnsInvalidValue pins what becomes of the zero Value: it is
// written (through the escape arm, as AppendValue writes it) and
// refused at decode, as DecodeValue refuses it.
func TestColumnsInvalidValue(t *testing.T) {
	for name, rows := range map[string][]Tuple{
		"alone":        {New(1, Value{})},
		"whole column": {New(1, Value{}), New(2, Value{})},
		"among floats": {New(1, Float(1)), New(2, Value{})},
	} {
		if _, err := DecodeColumns(nil, AppendColumns(nil, rows)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeColumns: %v, want ErrCorrupt", name, err)
		}
	}
	if _, _, err := DecodeValue(AppendValue(nil, Value{})); !errors.Is(err, ErrCorrupt) {
		t.Errorf("DecodeValue: %v, want ErrCorrupt", err)
	}
}

// TestDecodeColumnsHostile feeds the decoder counts and widths the
// bytes cannot hold, truncations, unknown kinds and trailing bytes:
// each is ErrCorrupt, and none makes it allocate by the declared size.
func TestDecodeColumnsHostile(t *testing.T) {
	uv := binary.AppendUvarint
	// ts is the head of an image of n rows a tick apart from Ts 1: the
	// count, the base, Ts width 1, n-1 deltas.
	ts := func(n int, rest ...byte) []byte {
		return append(append(append(uv(nil, uint64(n)), 2, 1), bytes.Repeat([]byte{2}, n-1)...), rest...)
	}
	valid := AppendColumns(nil, columnRuns()["ragged"])
	cases := map[string][]byte{
		"nil":                    nil,
		"huge count":             uv(nil, 1<<40),
		"count beyond the bytes": append(uv(nil, 9), 2, 1, 2),
		"max count":              uv(nil, math.MaxUint64),
		"no Ts width":            append(uv(nil, 1), 2),
		"Ts width 0":             append(uv(nil, 2), 2, 0, 2, 1),
		"Ts width 9":             append(uv(nil, 2), 2, 9, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1),
		"Ts width beyond":        append(uv(nil, 5), 2, 8, 2, 0, 0, 0, 0, 0, 0, 0, 1),
		"huge width":             ts(2, uv(nil, 1<<50)...),
		"width beyond the bytes": ts(2, 4, byte(KindBool), 1, 1),
		"huge ragged width":      ts(2, append(uv([]byte{0}, 1<<62), 1)...),
		"ragged sum beyond":      ts(3, 0, 2, 2, 2, byte(KindBool)),
		"no width":               ts(2),
		"unknown kind":           ts(1, 2, 9, 0, 0, 0, 0, 0, 0, 0, 0),
		"bool byte 2":            ts(1, 2, byte(KindBool), 2),
		"string beyond":          ts(1, 2, byte(KindString), 5, 'a'),
		"escape, bad kind":       ts(1, 2, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0),
		"trailing byte":          append(append([]byte(nil), valid...), 0),
		"empty run, trailing":    {0, 0},
	}
	// The heads themselves are sound: each case fails where it says.
	if got, err := DecodeColumns(nil, ts(3, 1)); err != nil || len(got) != 3 || got[2].Ts != 3 {
		t.Fatalf("three rows of no values decode to %v (%v)", got, err)
	}
	for cut := 0; cut < len(valid); cut++ {
		cases[fmt.Sprintf("truncated to %d", cut)] = valid[:cut]
	}
	for name, in := range cases {
		// TotalAlloc is the whole process's: the least of three tries is
		// the decoder's own (a stray runtime allocation lands in one).
		least := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeColumns(nil, in)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: %v, want ErrCorrupt", name, err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		// Rows and values are bounded by the input's length (a Tuple
		// is 32 bytes and a Value 16); the rest is the error.
		if limit := uint64(64*len(in) + 1024); least > limit {
			t.Errorf("%s: %d bytes allocated for %d bytes of input, limit %d", name, least, len(in), limit)
		}
	}
}

// TestDecodeBatchAllocs: a chunk decoded into a run with room for it,
// as a store appends chunk after chunk to one run, costs one value slab,
// not a slab per tuple. (A nil run also costs the run itself: one
// allocation, two under -race, which instruments slices.Grow.)
func TestDecodeBatchAllocs(t *testing.T) {
	rows := make([]Tuple, 512)
	for i := range rows {
		rows[i] = New(int64(i), Float(float64(i)), Int(int64(i)))
	}
	enc := EncodeBatch(rows)
	run := make([]Tuple, 0, len(rows))
	var got []Tuple
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if got, err = DecodeColumns(run, enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("%v allocations per 512-tuple chunk, want at most 1", allocs)
	}
	if !sameRows(got, rows) {
		t.Error("chunk did not round-trip")
	}
}

// TestEncodeBatchAllocs: EncodeBatch sizes its image once, from the
// first row, instead of growing it from nothing as it is written.
func TestEncodeBatchAllocs(t *testing.T) {
	rows := make([]Tuple, 512)
	for i := range rows {
		rows[i] = New(int64(i)*1e6, Float(float64(i)), String_(fmt.Sprintf("route-%04d", i)), Int(int64(i)), Bool(i%2 == 0))
	}
	var enc []byte
	if allocs := testing.AllocsPerRun(20, func() { enc = EncodeBatch(rows) }); allocs != 1 {
		t.Errorf("%v allocations per 512-tuple image, want 1", allocs)
	}
	if got, err := DecodeBatch(enc); err != nil || !sameRows(got, rows) {
		t.Errorf("image did not round-trip (%v)", err)
	}
}

func BenchmarkColumns(b *testing.B) {
	rows := make([]Tuple, 64)
	for i := range rows {
		rows[i] = New(int64(1000+i), Float(float64(i)))
	}
	enc := AppendColumns(nil, rows)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, len(enc))
		for i := 0; i < b.N; i++ {
			buf = AppendColumns(buf[:0], rows)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]Tuple, 0, len(rows))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeColumns(dst[:0], enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppendColumns is the encode side by Ts delta width: a
// 512-row chunk of (Ts, float) whose gaps are drawn at random below the
// width's limit, as arrival gaps are. One op is one row.
// BenchmarkDecodeColumns reads the same chunks back.
func BenchmarkAppendColumns(b *testing.B) {
	benchWidths(b, func(b *testing.B, rows []Tuple, enc []byte) {
		for n := 0; n < b.N; n += len(rows) {
			enc = AppendColumns(enc[:0], rows)
		}
	})
}

func BenchmarkDecodeColumns(b *testing.B) {
	benchWidths(b, func(b *testing.B, rows []Tuple, enc []byte) {
		dst := make([]Tuple, 0, len(rows))
		for n := 0; n < b.N; n += len(rows) {
			if _, err := DecodeColumns(dst[:0], enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchWidths(b *testing.B, loop func(b *testing.B, rows []Tuple, enc []byte)) {
	for w := 1; w <= 8; w++ {
		r := rand.New(rand.NewSource(int64(w)))
		rows := make([]Tuple, 512)
		ts := int64(1_600_000_000_000_000_000)
		for i := range rows {
			ts += 1 + r.Int63n(int64(1)<<(8*w-1)-1)
			rows[i] = New(ts, Float(float64(i)))
		}
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			enc := AppendColumns(nil, rows)
			_, count := binary.Uvarint(enc)
			_, base := binary.Uvarint(enc[count:])
			if got := int(enc[count+base]); got != w {
				b.Fatalf("Ts width %d, want %d", got, w)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)) / int64(len(rows)))
			b.ResetTimer()
			loop(b, rows, enc)
		})
	}
}

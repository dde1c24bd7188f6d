package col

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"spear/internal/tuple"
)

// rowsFromBytes decodes arbitrary fuzz input into a deterministic row
// set: [nrows][per row: ts 8 bytes, nvals][per val: kind selector + 8
// payload bytes]. The selector space deliberately includes invalid
// values and a "missing tail" marker so mixed-kind fields, int/float
// mixes, zero Values and ragged rows are all reachable from the byte
// stream. rowsToBytes is its inverse.
func rowsFromBytes(data []byte) []tuple.Tuple {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	next8 := func() uint64 {
		var buf [8]byte
		for i := range buf {
			buf[i] = next()
		}
		return binary.LittleEndian.Uint64(buf[:])
	}
	nrows := int(next()) % 33 // 0..32 rows, empty runs included
	rows := make([]tuple.Tuple, 0, nrows)
	for r := 0; r < nrows; r++ {
		ts := int64(next8())
		nvals := int(next()) % 9 // 0..8 fields, empty rows included
		vals := make([]tuple.Value, 0, nvals)
		for v := 0; v < nvals; v++ {
			sel := next() % 6
			payload := next8()
			switch sel {
			case 0:
				vals = append(vals, tuple.Int(int64(payload)))
			case 1:
				vals = append(vals, tuple.Float(math.Float64frombits(payload)))
			case 2:
				// Up to four bytes from the low word, the length from
				// the high one.
				s := binary.LittleEndian.AppendUint32(nil, uint32(payload))
				vals = append(vals, tuple.String_(string(s[:(payload>>32)%5])))
			case 3:
				vals = append(vals, tuple.Bool(payload&1 == 1))
			case 4:
				vals = append(vals, tuple.Value{}) // invalid field
			case 5:
				// Ragged row: stop early so later fields see this row
				// as missing.
				return append(rows, tuple.Tuple{Ts: ts, Vals: vals})
			}
		}
		rows = append(rows, tuple.Tuple{Ts: ts, Vals: vals})
	}
	return rows
}

// rowsToBytes encodes rows (at most 32, each at most 8 fields, strings
// at most 4 bytes) so that rowsFromBytes returns them.
func rowsToBytes(rows []tuple.Tuple) []byte {
	out := []byte{byte(len(rows))}
	for _, r := range rows {
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Ts))
		out = append(out, byte(len(r.Vals)))
		for _, v := range r.Vals {
			var sel byte
			var payload uint64
			switch v.Kind() {
			case tuple.KindInt:
				sel, payload = 0, uint64(v.AsInt())
			case tuple.KindFloat:
				sel, payload = 1, math.Float64bits(v.AsFloat())
			case tuple.KindString:
				var s [4]byte
				n := copy(s[:], v.AsString())
				sel, payload = 2, uint64(binary.LittleEndian.Uint32(s[:]))|uint64(n)<<32
			case tuple.KindBool:
				sel = 3
				if v.AsBool() {
					payload = 1
				}
			default:
				sel = 4
			}
			out = append(out, sel)
			out = binary.LittleEndian.AppendUint64(out, payload)
		}
	}
	return out
}

// fuzzCorpus is the checked-in corpus under
// testdata/fuzz/FuzzColumnBatch, by file name.
var fuzzCorpus = map[string][]tuple.Tuple{
	"seed_empty": nil,
	"seed_two_fields": {
		row(1, tuple.Float(0.5), tuple.Int(-3)),
		row(2, tuple.Float(-2), tuple.Int(1<<53+1)),
		row(3, tuple.Float(7), tuple.Int(0)),
	},
	"seed_inf_payload": {
		row(-1, tuple.Float(math.Inf(1)), tuple.Int(math.MinInt64)),
		row(0, tuple.Float(math.NaN()), tuple.Int(math.MaxInt64)),
		row(1, tuple.Float(math.Copysign(0, -1)), tuple.Int(-1)),
	},
	"seed_mixed_invalid": {
		row(1, tuple.Int(1), tuple.Value{}, tuple.Float(1)),
		row(2, tuple.Float(2), tuple.Float(2), tuple.Float(2)),
		row(3, tuple.Int(3), tuple.Float(3), tuple.Bool(true)),
	},
	"seed_ragged_strings": {
		row(1, tuple.String_("abc"), tuple.String_("k")),
		row(2, tuple.String_(""), tuple.String_("k")),
		row(3, tuple.String_("abc")),
		row(4, tuple.String_("\x00\xff")),
	},
}

// FuzzColumnBatch fuzzes the projection contract over arbitrary runs —
// mixed kinds, missing fields, zero Values, int/float mixes, strings,
// any payload bits: Floats(j) is non-nil exactly when every row's field
// j is a valid Float or every row's a valid Int, and then equals AsFloat
// bit for bit; ToRows equals the run and shares none of its Vals.
func FuzzColumnBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{2, 9, 9, 9, 9, 9, 9, 9, 9, 4, 2, 0xAA, 1, 0xBB, 4, 0xCC, 5})
	f.Add([]byte{32, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 8, 1, 0, 0, 0, 0, 0, 0, 0xF0, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := rowsFromBytes(data)
		b := Get()
		defer Put(b)
		b.SetRows(rows)
		if b.Len() != len(rows) || len(b.Ts()) != len(rows) || len(b.Rows()) != len(rows) {
			t.Fatalf("Len=%d Ts=%d Rows=%d, want %d", b.Len(), len(b.Ts()), len(b.Rows()), len(rows))
		}
		width := 0
		for i, r := range rows {
			if b.Ts()[i] != r.Ts {
				t.Fatalf("Ts()[%d]=%d want %d", i, b.Ts()[i], r.Ts)
			}
			width = max(width, len(r.Vals))
		}

		// The per-row reference: is every row's field j of kind k?
		all := func(j int, k tuple.Kind) bool {
			for _, r := range rows {
				if j < 0 || j >= len(r.Vals) || r.Vals[j].Kind() != k {
					return false
				}
			}
			return len(rows) > 0
		}
		for j := -1; j <= width; j++ {
			fs := b.Floats(j)
			if want := all(j, tuple.KindFloat) || all(j, tuple.KindInt); (fs != nil) != want {
				t.Fatalf("Floats(%d) non-nil=%v, the rows say %v", j, fs != nil, want)
			}
			if fs != nil && len(fs) != len(rows) {
				t.Fatalf("Floats(%d): len %d want %d", j, len(fs), len(rows))
			}
			for i := range fs {
				if math.Float64bits(fs[i]) != math.Float64bits(rows[i].Vals[j].AsFloat()) {
					t.Fatalf("Floats(%d)[%d] diverges from AsFloat", j, i)
				}
			}
		}
		checkRoundTrip(t, b, rows)
	})
}

// TestRegenFuzzCorpus rewrites the checked-in corpus under
// testdata/fuzz/FuzzColumnBatch from fuzzCorpus. Gated so it only runs
// when explicitly requested:
//
//	SPEAR_WRITE_CORPUS=1 go test ./internal/col -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("SPEAR_WRITE_CORPUS") == "" {
		t.Skip("set SPEAR_WRITE_CORPUS=1 to regenerate testdata/fuzz/FuzzColumnBatch")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzColumnBatch")
	for name, rows := range fuzzCorpus {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", rowsToBytes(rows))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFuzzCorpusDecodes holds rowsToBytes to being rowsFromBytes'
// inverse on every corpus entry, so the checked-in seeds are the runs
// fuzzCorpus names.
func TestFuzzCorpusDecodes(t *testing.T) {
	for name, rows := range fuzzCorpus {
		t.Run(name, func(t *testing.T) { requireRows(t, rowsFromBytes(rowsToBytes(rows)), rows) })
	}
}

package dataset

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"spear/internal/tuple"
)

// sliceStream replays ts under schema.
func sliceStream(schema *tuple.Schema, ts ...tuple.Tuple) *Stream {
	i := 0
	return &Stream{Name: "mixed", Schema: schema, Next: func() (tuple.Tuple, bool) {
		if i >= len(ts) {
			return tuple.Tuple{}, false
		}
		i++
		return ts[i-1], true
	}}
}

// TestCSVRoundtrip: WriteCSV renders a generated stream as a "ts" header
// plus the schema's names, then one line per tuple, timestamp first, the
// float at full precision.
func TestCSVRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteCSV(DEBS(DEBSConfig{Tuples: 500, Seed: 1}), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("wrote %d rows", n)
	}

	ref := DEBS(DEBSConfig{Tuples: 500, Seed: 1})
	want := []string{"ts," + ref.Schema.Field(0).Name + "," + ref.Schema.Field(1).Name}
	for _, tp := range drain(ref) {
		want = append(want, strconv.FormatInt(tp.Ts, 10)+","+tp.Vals[0].AsString()+","+
			strconv.FormatFloat(tp.Vals[1].AsFloat(), 'g', -1, 64))
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestCSVAllKinds: each kind's cell as WriteCSV writes it — a string with
// a comma quoted, an empty one empty — and a tuple with an invalid field
// refused after the rows before it.
func TestCSVAllKinds(t *testing.T) {
	schema := tuple.NewSchema(
		tuple.Field{Name: "i", Kind: tuple.KindInt},
		tuple.Field{Name: "f", Kind: tuple.KindFloat},
		tuple.Field{Name: "s", Kind: tuple.KindString},
		tuple.Field{Name: "b", Kind: tuple.KindBool},
	)
	rows := []tuple.Tuple{
		tuple.New(1, tuple.Int(-5), tuple.Float(2.25), tuple.String_("a,b"), tuple.Bool(true)),
		tuple.New(2, tuple.Int(9), tuple.Float(-0.5), tuple.String_(""), tuple.Bool(false)),
	}
	var buf bytes.Buffer
	if _, err := WriteCSV(sliceStream(schema, rows...), &buf); err != nil {
		t.Fatal(err)
	}
	if want := "ts,i,f,s,b\n1,-5,2.25,\"a,b\",true\n2,9,-0.5,,false\n"; buf.String() != want {
		t.Errorf("WriteCSV wrote %q, want %q", buf.String(), want)
	}

	bad := tuple.New(3, tuple.Int(1), tuple.Value{}, tuple.String_("x"), tuple.Bool(true))
	n, err := WriteCSV(sliceStream(schema, append(rows, bad)...), &bytes.Buffer{})
	if err == nil || n != 2 || !strings.Contains(err.Error(), "invalid field 1") {
		t.Errorf("a zero Value in field 1 of tuple 2: wrote %d rows, err %v", n, err)
	}
}

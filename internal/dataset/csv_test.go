package dataset

import (
	"bytes"
	"strings"
	"testing"

	"spear/internal/tuple"
)

func TestCSVRoundtrip(t *testing.T) {
	src := DEBS(DEBSConfig{Tuples: 500, Seed: 1})
	var buf bytes.Buffer
	n, err := WriteCSV(src, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("wrote %d rows", n)
	}

	ref := drain(DEBS(DEBSConfig{Tuples: 500, Seed: 1}))
	back, err := ReadCSV(&buf, "DEBS", DEBS(DEBSConfig{Tuples: 1, Seed: 1}).Schema)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(back.Stream)
	if back.Err() != nil {
		t.Fatal(back.Err())
	}
	if len(got) != len(ref) {
		t.Fatalf("read %d rows, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i].Ts != ref[i].Ts {
			t.Fatalf("row %d ts %d vs %d", i, got[i].Ts, ref[i].Ts)
		}
		if got[i].Vals[0].AsString() != ref[i].Vals[0].AsString() {
			t.Fatalf("row %d route mismatch", i)
		}
		if got[i].Vals[1].AsFloat() != ref[i].Vals[1].AsFloat() {
			t.Fatalf("row %d fare %v vs %v", i, got[i].Vals[1], ref[i].Vals[1])
		}
	}
}

func TestCSVAllKinds(t *testing.T) {
	schema := tuple.NewSchema(
		tuple.Field{Name: "i", Kind: tuple.KindInt},
		tuple.Field{Name: "f", Kind: tuple.KindFloat},
		tuple.Field{Name: "s", Kind: tuple.KindString},
		tuple.Field{Name: "b", Kind: tuple.KindBool},
	)
	in := []tuple.Tuple{
		tuple.New(1, tuple.Int(-5), tuple.Float(2.25), tuple.String_("a,b"), tuple.Bool(true)),
		tuple.New(2, tuple.Int(9), tuple.Float(-0.5), tuple.String_(""), tuple.Bool(false)),
	}
	i := 0
	src := &Stream{Name: "mixed", Schema: schema, Next: func() (tuple.Tuple, bool) {
		if i >= len(in) {
			return tuple.Tuple{}, false
		}
		t := in[i]
		i++
		return t, true
	}}
	var buf bytes.Buffer
	if _, err := WriteCSV(src, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "mixed", schema)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(back.Stream)
	if back.Err() != nil {
		t.Fatal(back.Err())
	}
	if len(got) != 2 {
		t.Fatalf("%d rows", len(got))
	}
	if got[0].Vals[0].AsInt() != -5 || got[0].Vals[2].AsString() != "a,b" || !got[0].Vals[3].AsBool() {
		t.Errorf("row 0 = %v", got[0])
	}
	if got[1].Vals[1].AsFloat() != -0.5 || got[1].Vals[3].AsBool() {
		t.Errorf("row 1 = %v", got[1])
	}
}

func TestReadCSVHeaderValidation(t *testing.T) {
	schema := tuple.NewSchema(tuple.Field{Name: "v", Kind: tuple.KindFloat})
	cases := []string{
		"",                    // empty
		"v\n1\n",              // missing ts
		"ts,wrong\n1,2\n",     // wrong field name
		"ts,v,extra\n1,2,3\n", // too many columns
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), "x", schema); err == nil {
			t.Errorf("header %q accepted", strings.SplitN(c, "\n", 2)[0])
		}
	}
}

func TestReadCSVMalformedRows(t *testing.T) {
	schema := tuple.NewSchema(tuple.Field{Name: "v", Kind: tuple.KindFloat})
	cases := []struct{ name, body string }{
		{"bad ts", "ts,v\nxx,1\n"},
		{"bad float", "ts,v\n1,notafloat\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs, err := ReadCSV(strings.NewReader(tc.body), "x", schema)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := cs.Stream.Next(); ok {
				t.Error("malformed row yielded a tuple")
			}
			if cs.Err() == nil {
				t.Error("error not surfaced")
			}
			// The stream stays ended.
			if _, ok := cs.Stream.Next(); ok {
				t.Error("stream continued after error")
			}
		})
	}
	// Bad int and bool kinds too.
	schema2 := tuple.NewSchema(
		tuple.Field{Name: "i", Kind: tuple.KindInt},
		tuple.Field{Name: "b", Kind: tuple.KindBool},
	)
	cs, err := ReadCSV(strings.NewReader("ts,i,b\n1,notint,true\n"), "x", schema2)
	if err != nil {
		t.Fatal(err)
	}
	cs.Stream.Next()
	if cs.Err() == nil {
		t.Error("bad int accepted")
	}
	cs, _ = ReadCSV(strings.NewReader("ts,i,b\n1,5,maybe\n"), "x", schema2)
	cs.Stream.Next()
	if cs.Err() == nil {
		t.Error("bad bool accepted")
	}
}

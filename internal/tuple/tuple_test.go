package tuple

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
		str  string
	}{
		{"int", Int(-42), KindInt, "-42"},
		{"float", Float(3.5), KindFloat, "3.5"},
		{"string", String_("abc"), KindString, `"abc"`},
		{"bool", Bool(true), KindBool, "true"},
		{"zero", Value{}, KindInvalid, "<invalid>"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.v.Kind(); got != tc.kind {
				t.Errorf("Kind() = %v, want %v", got, tc.kind)
			}
			if got := tc.v.String(); got != tc.str {
				t.Errorf("String() = %q, want %q", got, tc.str)
			}
		})
	}
	for k, want := range map[Kind]string{KindInt: "int", KindFloat: "float", KindString: "string", KindBool: "bool", KindInvalid: "invalid"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if got := Int(7).AsInt(); got != 7 {
		t.Errorf("AsInt = %d, want 7", got)
	}
	if got := Float(2.25).AsFloat(); got != 2.25 {
		t.Errorf("AsFloat = %v, want 2.25", got)
	}
	if got := Int(3).AsFloat(); got != 3 {
		t.Errorf("int AsFloat = %v, want 3", got)
	}
	if got := String_("x").AsString(); got != "x" {
		t.Errorf("AsString = %q, want x", got)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("AsBool roundtrip failed")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"AsInt on float", func() { Float(1).AsInt() }},
		{"AsFloat on string", func() { String_("a").AsFloat() }},
		{"AsString on int", func() { Int(1).AsString() }},
		{"AsBool on int", func() { Int(1).AsBool() }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(5).Equal(Int(5)) {
		t.Error("equal ints not Equal")
	}
	if Int(5).Equal(Float(5)) {
		t.Error("int 5 should not equal float 5")
	}
	if !Float(math.Inf(1)).Equal(Float(math.Inf(1))) {
		t.Error("inf should equal inf")
	}
	if !String_("a").Equal(String_("a")) || String_("a").Equal(String_("b")) {
		t.Error("string equality broken")
	}
	// One length, bytes in two places: equal by content, not address.
	if !String_(strings.Repeat("ab", 3)).Equal(String_("ababab")) || String_("abc").Equal(String_("abd")) {
		t.Error("strings compare by address, not content")
	}
	if Int(5).Equal(Float(math.Float64frombits(5))) || String_("").Equal(Value{}) {
		t.Error("values of different kinds compare equal")
	}
}

// TestValueLayout pins the two-word Value (DESIGN §24): 16 bytes, not
// comparable, the zero Value invalid, the empty string a string, and a
// NaN's payload bits kept by the constructor, the value codec and the
// column image.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Errorf("a Value takes %d bytes, want 16", n)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable: == would compare strings by address")
	}
	if k := (Value{}).Kind(); k != KindInvalid {
		t.Errorf("the zero Value is %v, want invalid", k)
	}
	if v := String_(""); v.Kind() != KindString || v.AsString() != "" {
		t.Errorf("String_(\"\") is %v holding %q", v.Kind(), v.String())
	}
	const payload = 0x7ff8_0000_dead_beef
	nan := Float(math.Float64frombits(payload))
	if got := math.Float64bits(nan.AsFloat()); got != payload {
		t.Errorf("Float/AsFloat: bits %016x, want %016x", got, uint64(payload))
	}
	if v, _, err := DecodeValue(AppendValue(nil, nan)); err != nil || math.Float64bits(v.AsFloat()) != payload {
		t.Errorf("AppendValue/DecodeValue: %v, %v", v, err)
	}
	rows, err := DecodeColumns(nil, AppendColumns(nil, []Tuple{New(1, nan)}))
	if err != nil || len(rows) != 1 || math.Float64bits(rows[0].Vals[0].AsFloat()) != payload {
		t.Errorf("column image: %v, %v", rows, err)
	}
}

func TestNegativeFloatRoundtrip(t *testing.T) {
	for _, f := range []float64{-1.5, 0, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(-1)} {
		if got := Float(f).AsFloat(); got != f {
			t.Errorf("Float(%v).AsFloat() = %v", f, got)
		}
	}
}

func TestTupleBasics(t *testing.T) {
	tp := New(1234, String_("r1"), Float(9.5))
	if tp.Ts != 1234 {
		t.Errorf("Ts = %d", tp.Ts)
	}
	if !strings.Contains(tp.String(), "r1") {
		t.Errorf("String = %q, want route in it", tp.String())
	}
	if tp.MemSize() <= 0 {
		t.Error("MemSize should be positive")
	}
	// Strings must cost more than their header.
	small := New(0, String_("")).MemSize()
	big := New(0, String_(strings.Repeat("x", 100))).MemSize()
	if big-small != 100 {
		t.Errorf("string MemSize delta = %d, want 100", big-small)
	}
}

func TestExtractors(t *testing.T) {
	tp := New(1, String_("route-7"), Float(12.5))
	if got := FieldFloat(1)(tp); got != 12.5 {
		t.Errorf("FieldFloat = %v", got)
	}
	if got := FieldString(0)(tp); got != "route-7" {
		t.Errorf("FieldString = %q", got)
	}
}

func randomTuple(r *rand.Rand) Tuple {
	n := r.Intn(5)
	vals := make([]Value, n)
	for i := range vals {
		switch r.Intn(4) {
		case 0:
			vals[i] = Int(r.Int63() - r.Int63())
		case 1:
			vals[i] = Float(r.NormFloat64() * 1e6)
		case 2:
			b := make([]byte, r.Intn(20))
			r.Read(b)
			vals[i] = String_(string(b))
		default:
			vals[i] = Bool(r.Intn(2) == 0)
		}
	}
	return Tuple{Ts: r.Int63() - r.Int63(), Vals: vals}
}

// TestCodecRoundtripProperty: every value of a random tuple comes back
// from the value codec (the column image's escape arm) equal, and
// DecodeValue consumes exactly what AppendValue wrote.
func TestCodecRoundtripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		_ = seed
		for _, in := range randomTuple(r).Vals {
			enc := AppendValue(nil, in)
			out, n, err := DecodeValue(enc)
			if err != nil || n != len(enc) || !in.Equal(out) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCodecBatchRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 100} {
		in := make([]Tuple, n)
		for i := range in {
			in[i] = randomTuple(r)
		}
		enc := EncodeBatch(in)
		out, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(out) != n {
			t.Fatalf("n=%d: decoded %d", n, len(out))
		}
		if !sameRows(in, out) {
			t.Fatalf("n=%d: decoded %v, want %v", n, out, in)
		}
	}
}

// TestDecodeCorrupt: a column image cut short anywhere, or with a kind
// byte no column has, is refused, through DecodeBatch as through
// DecodeColumns.
func TestDecodeCorrupt(t *testing.T) {
	// Two rows a tick apart: count, base, Ts width, one delta, width 3,
	// then the int, string and escape columns.
	good := EncodeBatch([]Tuple{New(5, Int(1), String_("hello"), Int(2)), New(6, Int(3), String_(""), Float(4))})
	const kind = 5 // the int column's kind byte
	tests := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short ts", good[:3]},
		{"truncated value", good[:len(good)-3]},
		{"bad kind", append(append(append([]byte{}, good[:kind]...), 0xFF), good[kind+1:]...)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBatch(tc.b); !errors.Is(err, ErrCorrupt) {
				t.Errorf("DecodeBatch: %v, want ErrCorrupt", err)
			}
		})
	}
	// Trailing garbage after a valid batch must be rejected.
	batch := EncodeBatch([]Tuple{New(1, Int(2))})
	if _, err := DecodeBatch(append(batch, 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

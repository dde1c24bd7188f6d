// Package tuple defines the data model that flows through the engine:
// typed values and tuples carrying an event timestamp.
//
// Tuples are the unit of transfer between execution stages and the unit
// of storage inside window buffers and the spill store. The engine keeps
// tuples immutable after emission; operators that need to change a tuple
// build a new one.
//
// A run of tuples is written down one way, the column image
// (columns.go): batch frames, store chunks, spill chunks and the window
// buffer's snapshot all hold it. A value on its own is written by the
// value codec (codec.go), the image's escape arm.
package tuple

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the value types a tuple field can hold.
type Kind uint8

// Supported field kinds.
const (
	KindInvalid Kind = iota
	KindInt          // int64
	KindFloat        // float64
	KindString       // string
	KindBool         // bool
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is one field of a tuple in two words (DESIGN §24): p is nil for
// the zero Value, its kind's tag for a number, a bool or the empty
// string, else a string's bytes; n is the payload or the string's
// length. Values are not comparable (== would compare strings by address).
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// tags gives each kind a tag with an address of its own: &tags[k] is the
// p of kind k's values, &tags[KindString] the empty string's.
var tags [KindBool + 1]byte

// tag returns the p of kind k's values.
func tag(k Kind) unsafe.Pointer { return unsafe.Pointer(&tags[k]) }

// setNum stores n, and t only where *v holds another tag: a store not made pays no write barrier.
func (v *Value) setNum(t unsafe.Pointer, n uint64) {
	if v.p != t {
		v.p = t
	}
	v.n = n
}

// Int returns a Value holding an int64.
func Int(v int64) Value { return Value{p: tag(KindInt), n: uint64(v)} }

// Float returns a Value holding a float64.
func Float(v float64) Value { return Value{p: tag(KindFloat), n: math.Float64bits(v)} }

// String_ returns a Value holding a string. The trailing underscore
// avoids colliding with the fmt.Stringer method.
func String_(v string) Value {
	if len(v) == 0 {
		return Value{p: tag(KindString)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Bool returns a Value holding a bool.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{p: tag(KindBool), n: n}
}

// Kind reports the kind stored in the value.
func (v Value) Kind() Kind {
	if d := uintptr(v.p) - uintptr(tag(0)); d < uintptr(len(tags)) {
		return Kind(d)
	}
	if v.p == nil {
		return KindInvalid
	}
	return KindString
}

// AsInt returns the int64 stored in the value. It panics if the kind is
// not KindInt; use Kind to check first when the type is not known.
func (v Value) AsInt() int64 {
	if v.p != tag(KindInt) {
		panic(kindError{"AsInt", v})
	}
	return int64(v.n)
}

// AsFloat returns the float64 stored in the value. Int values are
// converted; other kinds panic.
func (v Value) AsFloat() float64 {
	switch v.p {
	case tag(KindFloat):
		return math.Float64frombits(v.n)
	case tag(KindInt):
		return float64(int64(v.n))
	default:
		panic(kindError{"AsFloat", v})
	}
}

// AsString returns the string stored in the value. It panics if the
// kind is not KindString.
func (v Value) AsString() string {
	if v.Kind() != KindString {
		panic(kindError{"AsString", v})
	}
	return v.str()
}

// str is a KindString value's string (of another kind, n bytes of a tag).
func (v Value) str() string { return unsafe.String((*byte)(v.p), v.n) }

// kindError is an accessor's panic on another kind: a value, so that accessors inline.
type kindError struct {
	op string
	v  Value
}

func (e kindError) Error() string { return "tuple: " + e.op + " on " + e.v.Kind().String() + " value" }

// AsBool returns the bool stored in the value. It panics if the kind is
// not KindBool.
func (v Value) AsBool() bool {
	if v.p != tag(KindBool) {
		panic(kindError{"AsBool", v})
	}
	return v.n != 0
}

// Equal reports whether two values hold the same kind and payload: the
// same bits for a number, the same bytes for a string.
func (v Value) Equal(o Value) bool {
	return v.n == o.n && (v.p == o.p || v.Kind() == KindString && o.Kind() == KindString && v.str() == o.str())
}

// String renders the value for debugging and logs.
func (v Value) String() string {
	switch v.Kind() {
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.str())
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	default:
		return "<invalid>"
	}
}

// MemSize is the value's cost against the worker budget b in the paper's
// accounting — a kind byte, an 8-byte payload and a string's bytes —, not
// the 16 bytes a Value takes: budgets and mem_bytes_peak keep their meaning.
func (v Value) MemSize() int {
	if v.Kind() == KindString {
		return 9 + int(v.n)
	}
	return 9
}

// Tuple is one data record: an event timestamp plus field values, one
// per column of its stream.
type Tuple struct {
	// Ts is the event time in nanoseconds since the epoch for
	// time-based windows, or the sequence number for count-based
	// windows. The window assigner decides the interpretation.
	Ts int64
	// Vals are the field values, one per column.
	Vals []Value
}

// New builds a tuple with the given timestamp and values.
func New(ts int64, vals ...Value) Tuple {
	return Tuple{Ts: ts, Vals: vals}
}

// MemSize returns the approximate in-memory footprint of the tuple in
// bytes, used for budget accounting.
func (t Tuple) MemSize() int {
	n := 8 + 24 // Ts + slice header
	for _, v := range t.Vals {
		n += v.MemSize()
	}
	return n
}

// String renders the tuple for debugging.
func (t Tuple) String() string {
	parts := make([]string, len(t.Vals))
	for i, v := range t.Vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("@%d[%s]", t.Ts, strings.Join(parts, " "))
}

// Extractor pulls a float64 measure out of a tuple, e.g. the fare
// amount in the paper's running example.
type Extractor func(Tuple) float64

// KeyExtractor pulls a grouping key out of a tuple, e.g. the route id.
type KeyExtractor func(Tuple) string

// FieldFloat returns an Extractor reading field i as a float.
func FieldFloat(i int) Extractor {
	return func(t Tuple) float64 { return t.Vals[i].AsFloat() }
}

// FieldString returns a KeyExtractor reading field i as a string.
func FieldString(i int) KeyExtractor {
	return func(t Tuple) string { return t.Vals[i].AsString() }
}

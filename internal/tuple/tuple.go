// Package tuple defines the data model that flows through the engine:
// typed values, schemas, and tuples carrying an event timestamp.
//
// Tuples are the unit of transfer between execution stages and the unit
// of storage inside window buffers and the spill store. The engine keeps
// tuples immutable after emission; operators that need to change a tuple
// build a new one.
package tuple

import (
	"fmt"
	"strconv"
	"strings"
	"time"
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

// Value is a compact tagged union holding one field of a tuple.
// The zero Value has KindInvalid.
type Value struct {
	kind Kind
	num  uint64 // int64, float64 bits, or bool
	str  string
}

// Int returns a Value holding an int64.
func Int(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// Float returns a Value holding a float64.
func Float(v float64) Value { return Value{kind: KindFloat, num: floatBits(v)} }

// String_ returns a Value holding a string. The trailing underscore
// avoids colliding with the fmt.Stringer method.
func String_(v string) Value { return Value{kind: KindString, str: v} }

// Bool returns a Value holding a bool.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Kind reports the kind stored in the value.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the int64 stored in the value. It panics if the kind is
// not KindInt; use Kind to check first when the type is not known.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("tuple: AsInt on " + v.kind.String() + " value")
	}
	return int64(v.num)
}

// AsFloat returns the float64 stored in the value. Int values are
// converted; other kinds panic.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return floatFromBits(v.num)
	case KindInt:
		return float64(int64(v.num))
	default:
		panic("tuple: AsFloat on " + v.kind.String() + " value")
	}
}

// AsString returns the string stored in the value. It panics if the
// kind is not KindString.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("tuple: AsString on " + v.kind.String() + " value")
	}
	return v.str
}

// AsBool returns the bool stored in the value. It panics if the kind is
// not KindBool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic("tuple: AsBool on " + v.kind.String() + " value")
	}
	return v.num != 0
}

// Equal reports whether two values hold the same kind and payload.
func (v Value) Equal(o Value) bool {
	return v.kind == o.kind && v.num == o.num && v.str == o.str
}

// String renders the value for debugging and logs.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(floatFromBits(v.num), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.str)
	case KindBool:
		return strconv.FormatBool(v.num != 0)
	default:
		return "<invalid>"
	}
}

// MemSize returns the approximate in-memory footprint of the value in
// bytes. Used to account buffer usage against the worker budget b.
func (v Value) MemSize() int {
	// kind byte + 8-byte payload + string header/content.
	return 9 + len(v.str)
}

// Field describes one column of a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed fields. Schemas are shared
// between all tuples of a stream, so tuples store only values.
type Schema struct {
	fields []Field
}

// NewSchema builds a schema from the given fields. Field names must be
// unique; NewSchema panics otherwise because a duplicate is always a
// programming error in query construction.
func NewSchema(fields ...Field) *Schema {
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if seen[f.Name] {
			panic("tuple: duplicate field name " + f.Name)
		}
		seen[f.Name] = true
	}
	return &Schema{fields: fields}
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// String renders the schema as "(name kind, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one data record: an event timestamp plus field values laid
// out in schema order.
type Tuple struct {
	// Ts is the event time in nanoseconds since the epoch for
	// time-based windows, or the sequence number for count-based
	// windows. The window assigner decides the interpretation.
	Ts int64
	// Vals are the field values in schema order.
	Vals []Value
}

// New builds a tuple with the given timestamp and values.
func New(ts int64, vals ...Value) Tuple {
	return Tuple{Ts: ts, Vals: vals}
}

// Time returns the event time as a time.Time (nanosecond resolution).
func (t Tuple) Time() time.Time { return time.Unix(0, t.Ts) }

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

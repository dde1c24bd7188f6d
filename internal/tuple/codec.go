package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// The row codec serializes tuples one by one. It is the format of the
// window-buffer and join snapshot blobs (EncodeBatch) and of the column
// image's escape arm (AppendValue); the spill stores and the wire carry
// the column image (columns.go). The format is self-describing per tuple
// so it can be read back without the schema:
//
//	ts      int64  (little endian)
//	nvals   uvarint
//	per value:
//	  kind  byte
//	  int/bool/float: 8 bytes LE payload
//	  string:         uvarint length + bytes
//
// The codec favors simplicity and allocation-free appends over
// compactness.

// ErrCorrupt is returned when decoding runs into malformed bytes.
var ErrCorrupt = errors.New("tuple: corrupt encoding")

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// AppendValue appends the binary encoding of a single value (kind byte +
// payload) to dst and returns the extended slice. It is the per-value
// building block shared by AppendEncode and the column image's escape
// arm.
func AppendValue(dst []byte, v Value) []byte {
	kind := v.Kind()
	if dst = append(dst, byte(kind)); kind == KindString {
		return AppendStr(dst, v.str())
	}
	return binary.LittleEndian.AppendUint64(dst, v.n)
}

// DecodeValue reads one value encoded by AppendValue from b and returns
// it together with the number of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) < 1 {
		return Value{}, 0, ErrCorrupt
	}
	kind := Kind(b[0])
	pos := 1
	switch kind {
	case KindInt, KindFloat, KindBool:
		if pos+8 > len(b) {
			return Value{}, 0, ErrCorrupt
		}
		return Value{p: tag(kind), n: binary.LittleEndian.Uint64(b[pos:])}, pos + 8, nil
	case KindString:
		l, sz := binary.Uvarint(b[pos:])
		if sz <= 0 {
			return Value{}, 0, ErrCorrupt
		}
		pos += sz
		// Compare against the remaining bytes, not pos+l: a huge declared
		// length must not wrap uint64 addition past the bound (found by
		// FuzzTupleCodec).
		if l > uint64(len(b)-pos) {
			return Value{}, 0, ErrCorrupt
		}
		return String_(string(b[pos : pos+int(l)])), pos + int(l), nil
	default:
		return Value{}, 0, fmt.Errorf("%w: kind byte %d", ErrCorrupt, kind)
	}
}

// AppendEncode appends the binary encoding of t to dst and returns the
// extended slice.
func AppendEncode(dst []byte, t Tuple) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.Ts))
	dst = binary.AppendUvarint(dst, uint64(len(t.Vals)))
	for _, v := range t.Vals {
		dst = AppendValue(dst, v)
	}
	return dst
}

// Decode reads one tuple from b and returns it together with the number
// of bytes consumed.
func Decode(b []byte) (Tuple, int, error) {
	var s slab
	return s.decode(b, 1)
}

// slab carves the Vals of the tuples of one DecodeBatch out of shared
// backing arrays, so decoding a chunk costs one allocation, not one per
// tuple. Every tuple's Vals is cap-limited to its own values: appending
// to it reallocates and cannot reach the next tuple's. The backing
// array lives as long as any tuple carved from it. The zero slab is
// ready.
type slab struct {
	free []Value
}

// decode reads one tuple from b like the package-level Decode, taking
// its values from the slab. more is how many tuples, this one included,
// the caller still expects from b: a slab that runs dry is refilled for
// that many tuples of this one's arity, bounded by what the rest of b
// can hold (a value is at least two bytes), so a hostile count cannot
// drive the allocation.
func (s *slab) decode(b []byte, more int) (Tuple, int, error) {
	if len(b) < 8 {
		return Tuple{}, 0, ErrCorrupt
	}
	t := Tuple{Ts: int64(binary.LittleEndian.Uint64(b))}
	pos := 8
	nv, sz := binary.Uvarint(b[pos:])
	if sz <= 0 {
		return Tuple{}, 0, ErrCorrupt
	}
	pos += sz
	fit := uint64(len(b)-pos) / 2
	if nv > fit {
		return Tuple{}, 0, ErrCorrupt
	}
	n := int(nv)
	if n == 0 {
		return t, pos, nil
	}
	if len(s.free) < n {
		want := nv * uint64(max(more, 1))
		if want > fit {
			want = fit
		}
		s.free = make([]Value, want)
	}
	t.Vals, s.free = s.free[:n:n], s.free[n:]
	for i := range t.Vals {
		v, used, err := DecodeValue(b[pos:])
		if err != nil {
			return Tuple{}, 0, err
		}
		t.Vals[i] = v
		pos += used
	}
	return t, pos, nil
}

// EncodeBatch encodes a slice of tuples into one contiguous buffer,
// prefixed by a uvarint count: the buffered tuples of a window-buffer or
// join snapshot.
func EncodeBatch(ts []Tuple) []byte {
	// Sized exactly: slack would be zeroed and held for nothing.
	size := uvarintLen(uint64(len(ts)))
	for i := range ts {
		size += 8 + uvarintLen(uint64(len(ts[i].Vals)))
		for _, v := range ts[i].Vals {
			if v.Kind() == KindString {
				size += 1 + uvarintLen(v.n) + int(v.n)
			} else {
				size += 9
			}
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	for _, t := range ts {
		buf = AppendEncode(buf, t)
	}
	return buf
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DecodeBatch decodes a buffer produced by EncodeBatch.
func DecodeBatch(b []byte) ([]Tuple, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	pos := sz
	// A tuple is at least 9 bytes (8-byte Ts + empty-values uvarint).
	if n > uint64(len(b)-pos)/9 {
		return nil, ErrCorrupt
	}
	out := make([]Tuple, 0, n)
	var s slab
	for i := 0; i < int(n); i++ {
		t, used, err := s.decode(b[pos:], int(n)-i)
		if err != nil {
			return nil, err
		}
		pos += used
		out = append(out, t)
	}
	if pos != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-pos)
	}
	return out, nil
}

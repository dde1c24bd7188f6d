package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The value codec writes one value self-described, so it can be read
// back without the schema: the column image's escape arm (columns.go),
// the one place a value is written down on its own.
//
//	kind  byte
//	int/bool/float: 8 bytes LE payload
//	string:         uvarint length + bytes

// ErrCorrupt is returned when decoding runs into malformed bytes.
var ErrCorrupt = errors.New("tuple: corrupt encoding")

// AppendValue appends the binary encoding of a single value (kind byte +
// payload) to dst and returns the extended slice.
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

// EncodeBatch returns the column image of ts (AppendColumns) in one
// buffer sized from the first row: a row's image is smaller than its
// MemSize. It and DecodeBatch are the names the benchmark's tuple and
// spill layer probes call; the engine calls the column image directly.
func EncodeBatch(ts []Tuple) []byte {
	if len(ts) == 0 {
		return AppendColumns(nil, ts)
	}
	return AppendColumns(make([]byte, 0, 16+len(ts)*ts[0].MemSize()), ts)
}

// DecodeBatch decodes a column image (DecodeColumns).
func DecodeBatch(b []byte) ([]Tuple, error) { return DecodeColumns(nil, b) }

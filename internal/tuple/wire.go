package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire helpers are what checkpoint state blobs and frame headers are
// written with: fixed-width little-endian scalars, uvarints and
// length-prefixed strings, plus a bounds-checked reader that
// accumulates the first error instead of panicking. Every snapshot
// codec in the repo (window managers, reservoirs, manifests) is built
// from these primitives and the column image, so malformed snapshots
// surface as ErrCorrupt, never as a panic.

// AppendU64 appends v little-endian.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendI64 appends v little-endian (two's complement).
func AppendI64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

// AppendF64 appends v as its IEEE-754 bit pattern.
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendUvar appends v as a uvarint.
func AppendUvar(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendStr appends a uvarint length followed by the bytes of s.
func AppendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// WireReader decodes the wire format with bounds checking. The first
// malformed read latches an error; subsequent reads return zero values,
// so codecs can decode a whole struct and check Err once.
type WireReader struct {
	b   []byte
	pos int
	err error
}

// NewWireReader returns a reader over b.
func NewWireReader(b []byte) *WireReader { return &WireReader{b: b} }

func (r *WireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, r.pos)
	}
}

// Err returns the first decoding error, or nil.
func (r *WireReader) Err() error { return r.err }

// Corrupt latches a codec-level validation failure (e.g. a negative
// count or an out-of-range enum) so it surfaces through Err/Done like
// any truncation would.
func (r *WireReader) Corrupt(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, r.pos)
	}
}

// Rest consumes and returns the unread bytes: a column image, say.
func (r *WireReader) Rest() []byte {
	b := r.b[r.pos:]
	r.pos = len(r.b)
	return b
}

// Done verifies the reader consumed the buffer exactly.
func (r *WireReader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b)-r.pos)
	}
	return nil
}

// U64 reads a little-endian uint64.
func (r *WireReader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.b) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

// I64 reads a little-endian int64.
func (r *WireReader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *WireReader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte; any byte other than 0 or 1 is corrupt.
func (r *WireReader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.b) {
		r.fail("bool")
		return false
	}
	c := r.b[r.pos]
	r.pos++
	if c > 1 {
		r.fail("bool byte")
		return false
	}
	return c == 1
}

// Byte reads one raw byte (enum tags, version bytes).
func (r *WireReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.b) {
		r.fail("byte")
		return 0
	}
	c := r.b[r.pos]
	r.pos++
	return c
}

// Uvar reads a uvarint.
func (r *WireReader) Uvar() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.pos += n
	return v
}

// Count reads a uvarint element count and validates that count elements
// of at least bytesPerItem bytes each could still fit in the remaining
// buffer, so malformed counts cannot drive huge allocations.
func (r *WireReader) Count(bytesPerItem int) int {
	v := r.Uvar()
	if r.err != nil {
		return 0
	}
	if bytesPerItem < 1 {
		bytesPerItem = 1
	}
	if v > uint64((len(r.b)-r.pos)/bytesPerItem) {
		r.fail("element count")
		return 0
	}
	return int(v)
}

// Str reads a uvarint-length-prefixed string.
func (r *WireReader) Str() string {
	n := r.Count(1)
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.pos : r.pos+n])
	r.pos += n
	return s
}

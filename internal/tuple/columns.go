package tuple

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// The column image serializes a run of tuples by column, for the wire:
// a run off one stream has one schema, so a field's kind is written
// once and its payloads are packed, and timestamps that climb in small
// steps take a byte or two each.
//
//	n       uvarint       row count; the image of an empty run ends here
//	ts      n × uvarint   zig-zag delta from the previous row's Ts (the
//	                      first row's from 0) in wrapping uint64
//	                      arithmetic: any step is representable
//	width   uvarint       w+1 when every row holds w values; 0 when the
//	                      rows differ, followed by n × uvarint widths
//	per field j below the widest row, over the rows that hold a field j:
//	  kind  byte
//	  int/float: 8 bytes LE each
//	  bool:      one byte each, 0 or 1
//	  string:    uvarint length + bytes each
//	  0:         each value as AppendValue writes it (kind + payload)
//
// Kind 0 is the one escape arm: a column whose rows disagree on the
// kind, or hold what the packed payload cannot carry (the invalid zero
// Value, a bool whose payload is neither 0 nor 1), falls back to the
// self-describing value codec. Whatever AppendEncode can write the
// image can too, and what DecodeValue refuses (the zero Value) is
// refused here as well, at decode.

// AppendColumns appends the column image of rows to dst and returns the
// extended slice.
func AppendColumns(dst []byte, rows []Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	if len(rows) == 0 {
		return dst
	}
	first, widest, uniform := len(rows[0].Vals), 0, true
	var prev uint64
	for i := range rows {
		d := uint64(rows[i].Ts) - prev
		prev = uint64(rows[i].Ts)
		dst = binary.AppendUvarint(dst, d<<1^uint64(int64(d)>>63))
		uniform = uniform && len(rows[i].Vals) == first
		widest = max(widest, len(rows[i].Vals))
	}
	if uniform {
		dst = binary.AppendUvarint(dst, uint64(widest)+1)
	} else {
		dst = append(dst, 0)
		for i := range rows {
			dst = binary.AppendUvarint(dst, uint64(len(rows[i].Vals)))
		}
	}
	for j := 0; j < widest; j++ {
		dst = appendColumn(dst, rows, j)
	}
	return dst
}

// appendColumn writes field j of the rows that hold one, packed under
// the kind of the first such row — one loop per kind, so the send path
// pays no kind switch per value; a later row that does not fit has the
// column rewritten through the escape arm.
func appendColumn(dst []byte, rows []Tuple, j int) []byte {
	mark, kind := len(dst), KindInvalid
	for i := range rows {
		if j < len(rows[i].Vals) {
			kind = rows[i].Vals[j].kind
			break
		}
	}
	dst = append(dst, byte(kind))
	switch kind {
	case KindInt, KindFloat:
		for i := range rows {
			if vs := rows[i].Vals; j < len(vs) {
				if vs[j].kind != kind {
					return appendEscape(dst[:mark], rows, j)
				}
				dst = binary.LittleEndian.AppendUint64(dst, vs[j].num)
			}
		}
	case KindBool:
		for i := range rows {
			if vs := rows[i].Vals; j < len(vs) {
				if vs[j].kind != kind || vs[j].num > 1 {
					return appendEscape(dst[:mark], rows, j)
				}
				dst = append(dst, byte(vs[j].num))
			}
		}
	case KindString:
		for i := range rows {
			if vs := rows[i].Vals; j < len(vs) {
				if vs[j].kind != kind {
					return appendEscape(dst[:mark], rows, j)
				}
				dst = AppendStr(dst, vs[j].str)
			}
		}
	default:
		return appendEscape(dst[:mark], rows, j)
	}
	return dst
}

// appendEscape writes field j through the escape arm: kind byte 0, then
// each value self-described.
func appendEscape(dst []byte, rows []Tuple, j int) []byte {
	dst = append(dst, 0)
	for i := range rows {
		if vs := rows[i].Vals; j < len(vs) {
			dst = AppendValue(dst, vs[j])
		}
	}
	return dst
}

// DecodeColumns appends the rows of the column image b — all of b — to
// dst and returns the extended slice. Every row's Vals is carved from
// one slab allocated per call, cap-limited to its own values, so
// appending to one row's cannot reach the next row's; the slab lives as
// long as any row carved from it. The row count and the sum of the
// widths are checked against the bytes left before anything is
// allocated (a row is at least its one-byte Ts delta, a value at least
// one byte), so a hostile count costs at most one Tuple and one Value
// per input byte.
func DecodeColumns(dst []Tuple, b []byte) ([]Tuple, error) {
	un, pos := binary.Uvarint(b)
	if pos <= 0 || un > uint64(len(b)-pos) {
		return nil, fmt.Errorf("%w: column image row count", ErrCorrupt)
	}
	n := int(un)
	if n == 0 {
		if pos != len(b) {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-pos)
		}
		return dst, nil
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	rows := dst[base:]

	var prev uint64
	for i := range rows {
		u, sz := binary.Uvarint(b[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("%w: truncated Ts column", ErrCorrupt)
		}
		pos += sz
		prev += u>>1 ^ -(u & 1)
		rows[i].Ts = int64(prev)
	}

	uw, sz := binary.Uvarint(b[pos:])
	if sz <= 0 {
		return nil, fmt.Errorf("%w: truncated width", ErrCorrupt)
	}
	pos += sz
	widest := 0
	if uw > 0 {
		if uw-1 > uint64(len(b)-pos)/un {
			return nil, fmt.Errorf("%w: %d rows of width %d in %d bytes", ErrCorrupt, n, uw-1, len(b)-pos)
		}
		widest = int(uw - 1)
		var vals []Value // stays nil for rows without values, and so do their Vals
		if widest > 0 {
			vals = make([]Value, n*widest)
		}
		for i := range rows {
			rows[i].Vals, vals = vals[:widest:widest], vals[widest:]
		}
	} else {
		// Ragged: one pass over the width column to size the slab, a
		// second to carve it.
		total, at := 0, pos
		for range rows {
			w, sz := binary.Uvarint(b[pos:])
			if sz <= 0 || w > uint64(len(b)-pos-sz) || total+int(w) > len(b)-pos-sz {
				return nil, fmt.Errorf("%w: width column", ErrCorrupt)
			}
			pos += sz
			total += int(w)
		}
		vals := make([]Value, total)
		for i := range rows {
			w64, sz := binary.Uvarint(b[at:])
			at += sz
			w := int(w64)
			widest = max(widest, w)
			rows[i].Vals = nil
			if w > 0 {
				rows[i].Vals, vals = vals[:w:w], vals[w:]
			}
		}
	}

	for j := 0; j < widest; j++ {
		if pos >= len(b) {
			return nil, fmt.Errorf("%w: truncated at column %d", ErrCorrupt, j)
		}
		kind := Kind(b[pos])
		pos++
		switch kind {
		case KindInt, KindFloat:
			for i := range rows {
				if vs := rows[i].Vals; j < len(vs) {
					if len(b)-pos < 8 {
						return nil, fmt.Errorf("%w: truncated %s column %d", ErrCorrupt, kind, j)
					}
					// The slab is fresh: str is already empty, and not
					// storing it spares a write barrier a value.
					vs[j].kind, vs[j].num = kind, binary.LittleEndian.Uint64(b[pos:])
					pos += 8
				}
			}
		case KindBool:
			for i := range rows {
				if vs := rows[i].Vals; j < len(vs) {
					if pos >= len(b) || b[pos] > 1 {
						return nil, fmt.Errorf("%w: bool column %d", ErrCorrupt, j)
					}
					vs[j].kind, vs[j].num = KindBool, uint64(b[pos])
					pos++
				}
			}
		case KindString:
			for i := range rows {
				if vs := rows[i].Vals; j < len(vs) {
					l, sz := binary.Uvarint(b[pos:])
					if sz <= 0 || l > uint64(len(b)-pos-sz) {
						return nil, fmt.Errorf("%w: string column %d", ErrCorrupt, j)
					}
					pos += sz
					vs[j] = Value{kind: KindString, str: string(b[pos : pos+int(l)])}
					pos += int(l)
				}
			}
		case KindInvalid:
			for i := range rows {
				if vs := rows[i].Vals; j < len(vs) {
					v, used, err := DecodeValue(b[pos:])
					if err != nil {
						return nil, err
					}
					vs[j] = v
					pos += used
				}
			}
		default:
			return nil, fmt.Errorf("%w: kind byte %d of column %d", ErrCorrupt, kind, j)
		}
	}
	if pos != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-pos)
	}
	return dst, nil
}

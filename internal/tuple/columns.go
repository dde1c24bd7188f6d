package tuple

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// The column image serializes a run of tuples by column — a batch frame
// on the wire, a chunk in a spill store: a run off one stream has one
// schema, so a field's kind is written once and its payloads are packed,
// and timestamps that climb in small steps take a byte or two each.
//
//	n       uvarint       row count; the image of an empty run ends here
//	base    uvarint       the first row's Ts, zig-zag
//	tw      byte          1…8: the bytes the largest delta below needs
//	ts      (n−1) × tw    zig-zag delta from the previous row's Ts in
//	                      wrapping uint64 arithmetic (any step is
//	                      representable), little-endian, all at one width
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
//
// The deltas have one width an image so that neither side branches on a
// length per row (arrival gaps drawn from a distribution make varints of
// two to four bytes in an order no predictor guesses). The base is apart:
// as a first delta, an absolute nanosecond timestamp would widen every
// delta of the image to eight bytes.

// AppendColumns appends the column image of rows to dst and returns the
// extended slice.
func AppendColumns(dst []byte, rows []Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	if len(rows) == 0 {
		return dst
	}
	steps, widest, uniform := scanRows(rows)
	dst = binary.AppendUvarint(dst, zigzag(uint64(rows[0].Ts)))
	tw := (bits.Len64(steps|1) + 7) / 8
	dst = appendDeltas(append(dst, byte(tw)), rows, tw)
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

// scanRows is the one look at every row the image's header needs: the
// OR of the zig-zag Ts deltas (its top bit is the largest delta's), the
// widest row, and whether every row is that wide. A function of its own,
// like the two delta loops, so that the loop's variables stay in registers.
func scanRows(rows []Tuple) (steps uint64, widest int, uniform bool) {
	first, prev := len(rows[0].Vals), uint64(rows[0].Ts)
	uniform = true
	for i := range rows {
		d := uint64(rows[i].Ts) - prev
		prev = uint64(rows[i].Ts)
		steps |= zigzag(d)
		uniform = uniform && len(rows[i].Vals) == first
		widest = max(widest, len(rows[i].Vals))
	}
	return steps, widest, uniform
}

// appendDeltas writes the zig-zag Ts deltas of rows[1:], tw bytes each.
// Every delta is stored as eight bytes, the next one overwriting what the
// width cuts off; the last spills into capacity grown for it.
func appendDeltas(dst []byte, rows []Tuple, tw int) []byte {
	at, size := len(dst), (len(rows)-1)*tw
	dst = slices.Grow(dst, size+8)
	out, prev := dst[at:at+size+8], uint64(rows[0].Ts)
	for _, r := range rows[1:] {
		binary.LittleEndian.PutUint64(out, zigzag(uint64(r.Ts)-prev))
		out, prev = out[tw:], uint64(r.Ts)
	}
	return dst[:at+size]
}

// zigzag folds the sign of a wrapping delta into its lowest bit, so that
// a small step either way is a small number.
func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

// appendColumn writes field j of the rows that hold one, packed under
// the kind of the first such row — one loop per kind, so the send path
// pays no kind switch per value; a later row that does not fit has the
// column rewritten through the escape arm.
func appendColumn(dst []byte, rows []Tuple, j int) []byte {
	mark, kind := len(dst), KindInvalid
	for i := range rows {
		if j < len(rows[i].Vals) {
			kind = rows[i].Vals[j].Kind()
			break
		}
	}
	dst = append(dst, byte(kind))
	switch tag := tag(kind); kind {
	case KindInt, KindFloat:
		for i := range rows {
			if vs := rows[i].Vals; j < len(vs) {
				if vs[j].p != tag {
					return appendEscape(dst[:mark], rows, j)
				}
				dst = binary.LittleEndian.AppendUint64(dst, vs[j].n)
			}
		}
	case KindBool:
		for i := range rows {
			if vs := rows[i].Vals; j < len(vs) {
				if vs[j].p != tag || vs[j].n > 1 {
					return appendEscape(dst[:mark], rows, j)
				}
				dst = append(dst, byte(vs[j].n))
			}
		}
	case KindString:
		for i := range rows {
			if vs := rows[i].Vals; j < len(vs) {
				if vs[j].Kind() != KindString {
					return appendEscape(dst[:mark], rows, j)
				}
				dst = AppendStr(dst, vs[j].str())
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

// decodeDeltas fills in the Ts of rows[1:] from rows[0]'s and the deltas
// at the head of b, tw bytes each (the caller has checked that b holds
// them): a byte a row for a tick stream, else a load masked to the width.
func decodeDeltas(rows []Tuple, b []byte, tw int) {
	prev := uint64(rows[0].Ts)
	if tw == 1 {
		for i, d := range b[:len(rows)-1] {
			prev += unzigzag(uint64(d))
			rows[i+1].Ts = int64(prev)
		}
		return
	}
	mask := ^uint64(0) >> (64 - 8*tw)
	for i := 1; i < len(rows); i, b = i+1, b[tw:] {
		var u uint64
		if len(b) >= 8 {
			u = binary.LittleEndian.Uint64(b) & mask
		} else { // the image's last bytes: no room for the full load
			var tail [8]byte
			copy(tail[:], b[:tw])
			u = binary.LittleEndian.Uint64(tail[:])
		}
		prev += unzigzag(u)
		rows[i].Ts = int64(prev)
	}
}

// DecodeColumns appends the rows of the column image b — all of b — to
// dst and returns the extended slice. Every row's Vals is carved from
// one slab allocated per call (DecodeColumnsInto carves it from a slab
// the caller recycles), cap-limited to its own values, so appending to
// one row's cannot reach the next row's; the slab lives as long as any
// row carved from it. The row count and the sum of the widths are
// checked against the bytes left before anything is allocated (a row
// is at least a byte of the Ts column, a value at least one byte), so a
// hostile count costs at most one Tuple and one Value per input byte.
func DecodeColumns(dst []Tuple, b []byte) ([]Tuple, error) {
	rows, _, err := DecodeColumnsInto(dst, nil, b)
	return rows, err
}

// DecodeColumnsInto is DecodeColumns carving the rows' values from slab
// when it has the room, and from a fresh slab when it has not. It
// returns the slab the values live in — slab itself when the image
// needs none — for the caller to hand to the next decode once no row
// of this one is referenced any more: whatever slab held before is
// overwritten, old strings included.
func DecodeColumnsInto(dst []Tuple, slab []Value, b []byte) ([]Tuple, []Value, error) {
	un, pos := binary.Uvarint(b)
	if pos <= 0 || un > uint64(len(b)-pos) {
		return nil, slab, fmt.Errorf("%w: column image row count", ErrCorrupt)
	}
	n := int(un)
	if n == 0 {
		if pos != len(b) {
			return nil, slab, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-pos)
		}
		return dst, slab, nil
	}
	u, sz := binary.Uvarint(b[pos:])
	if sz <= 0 || pos+sz >= len(b) {
		return nil, slab, fmt.Errorf("%w: truncated Ts base", ErrCorrupt)
	}
	tw := int(b[pos+sz])
	pos += sz + 1
	if tw < 1 || tw > 8 || (n-1)*tw > len(b)-pos {
		return nil, slab, fmt.Errorf("%w: %d Ts deltas of width %d in %d bytes", ErrCorrupt, n-1, tw, len(b)-pos)
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	rows := dst[base:]

	rows[0].Ts = int64(unzigzag(u))
	decodeDeltas(rows, b[pos:], tw)
	pos += (n - 1) * tw

	uw, sz := binary.Uvarint(b[pos:])
	if sz <= 0 {
		return nil, slab, fmt.Errorf("%w: truncated width", ErrCorrupt)
	}
	pos += sz
	widest := 0
	if uw > 0 {
		if uw-1 > uint64(len(b)-pos)/un {
			return nil, slab, fmt.Errorf("%w: %d rows of width %d in %d bytes", ErrCorrupt, n, uw-1, len(b)-pos)
		}
		widest = int(uw - 1)
		var vals []Value // stays nil for rows without values, and so do their Vals
		if widest > 0 {
			vals = carve(&slab, n*widest)
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
				return nil, slab, fmt.Errorf("%w: width column", ErrCorrupt)
			}
			pos += sz
			total += int(w)
		}
		var vals []Value
		if total > 0 {
			vals = carve(&slab, total)
		}
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
			return nil, slab, fmt.Errorf("%w: truncated at column %d", ErrCorrupt, j)
		}
		kind := Kind(b[pos])
		pos++
		switch kind {
		case KindInt, KindFloat:
			tag := tag(kind)
			for i := range rows {
				if vs := rows[i].Vals; j < len(vs) {
					if len(b)-pos < 8 {
						return nil, slab, fmt.Errorf("%w: truncated %s column %d", ErrCorrupt, kind, j)
					}
					vs[j].setNum(tag, binary.LittleEndian.Uint64(b[pos:]))
					pos += 8
				}
			}
		case KindBool:
			tag := tag(KindBool)
			for i := range rows {
				if vs := rows[i].Vals; j < len(vs) {
					if pos >= len(b) || b[pos] > 1 {
						return nil, slab, fmt.Errorf("%w: bool column %d", ErrCorrupt, j)
					}
					vs[j].setNum(tag, uint64(b[pos]))
					pos++
				}
			}
		case KindString:
			for i := range rows {
				if vs := rows[i].Vals; j < len(vs) {
					l, sz := binary.Uvarint(b[pos:])
					if sz <= 0 || l > uint64(len(b)-pos-sz) {
						return nil, slab, fmt.Errorf("%w: string column %d", ErrCorrupt, j)
					}
					pos += sz
					vs[j] = String_(string(b[pos : pos+int(l)]))
					pos += int(l)
				}
			}
		case KindInvalid:
			for i := range rows {
				if vs := rows[i].Vals; j < len(vs) {
					v, used, err := DecodeValue(b[pos:])
					if err != nil {
						return nil, slab, err
					}
					vs[j] = v
					pos += used
				}
			}
		default:
			return nil, slab, fmt.Errorf("%w: kind byte %d of column %d", ErrCorrupt, kind, j)
		}
	}
	if pos != len(b) {
		return nil, slab, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-pos)
	}
	return dst, slab, nil
}

// carve returns n values of *slab, replacing it by a fresh slab when it
// is too small. A recycled slab is not cleared: the decode writes every
// value it carves.
func carve(slab *[]Value, n int) []Value {
	if cap(*slab) < n {
		*slab = make([]Value, n)
	}
	*slab = (*slab)[:n]
	return *slab
}

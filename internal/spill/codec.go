package spill

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"spear/internal/tuple"
)

// The chunk codec wraps the column image of one spilled chunk (the
// []tuple.Tuple of a single Store call, as tuple.AppendColumns writes
// it) in a header, and optionally deflates it:
//
//	magic   2 bytes  "SC"
//	version 1 byte   (2)
//	flags   1 byte   (bit0: payload is DEFLATE-compressed)
//	payload the chunk's column image
//
// Flate applies to the payload only; when compression expands it
// (already-dense data) the raw form is kept and the flag cleared, so
// decoding cost is only paid when it won.
//
// No store of the engine encodes chunks this way (they keep the column
// image as it is); the codec remains for benchmark/layers/spill, which
// measures its cost and ratio at level 1.

const (
	chunkMagic0  = 'S'
	chunkMagic1  = 'C'
	chunkVersion = 2

	flagCompressed = 1 << 0
)

// ErrChunkCorrupt wraps tuple.ErrCorrupt for malformed chunk bytes.
var ErrChunkCorrupt = fmt.Errorf("spill: corrupt chunk: %w", tuple.ErrCorrupt)

// EncodeChunk encodes ts. level is a compress/flate level: 0 disables
// block compression, 1–9 trade speed for ratio (flate.BestSpeed …
// flate.BestCompression).
func EncodeChunk(ts []tuple.Tuple, level int) ([]byte, error) {
	if level < 0 || level > 9 {
		return nil, fmt.Errorf("spill: flate level %d outside [0, 9]", level)
	}
	out := append(make([]byte, 0, 64+24*len(ts)), chunkMagic0, chunkMagic1, chunkVersion, 0) // room for two numeric columns
	out = tuple.AppendColumns(out, ts)
	if level > 0 {
		comp, err := deflate(out[4:], level)
		if err != nil {
			return nil, fmt.Errorf("spill: compress chunk: %w", err)
		}
		if len(comp) < len(out)-4 {
			out = append(out[:4], comp...)
			out[3] |= flagCompressed
		}
	}
	return out, nil
}

// DecodeChunk decodes a chunk produced by EncodeChunk.
func DecodeChunk(b []byte) ([]tuple.Tuple, error) {
	if len(b) < 4 || b[0] != chunkMagic0 || b[1] != chunkMagic1 {
		return nil, fmt.Errorf("%w: bad magic", ErrChunkCorrupt)
	}
	if b[2] != chunkVersion {
		return nil, fmt.Errorf("spill: unknown chunk version %d", b[2])
	}
	flags := b[3]
	payload := b[4:]
	if flags&^byte(flagCompressed) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrChunkCorrupt, flags)
	}
	if flags&flagCompressed != 0 {
		var err error
		payload, err = inflate(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrChunkCorrupt, err)
		}
	}
	return tuple.DecodeColumns(nil, payload)
}

// flateWriters pools flate.Writer instances per level (they carry large
// internal buffers; the pool keeps steady-state encoding allocation-
// light without a dependency).
var flateWriters [10]sync.Pool

func deflate(b []byte, level int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(len(b) / 2)
	w, _ := flateWriters[level].Get().(*flate.Writer)
	if w == nil {
		var err error
		w, err = flate.NewWriter(&buf, level)
		if err != nil {
			return nil, err
		}
	} else {
		w.Reset(&buf)
	}
	// One exit, so the writer goes back to the pool on every path
	// (TestEncodeChunkReusesItsFlateWriter).
	_, err := w.Write(b)
	if err == nil {
		err = w.Close()
	}
	flateWriters[level].Put(w)
	return buf.Bytes(), err
}

func inflate(b []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(b))
	out, err := io.ReadAll(io.LimitReader(r, maxChunkBytes))
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if int64(len(out)) >= maxChunkBytes {
		return nil, fmt.Errorf("chunk payload exceeds %d bytes", maxChunkBytes)
	}
	return out, nil
}

// maxChunkBytes bounds a decompressed chunk payload so corrupt or
// hostile bytes cannot balloon memory (a chunk is a few hundred tuples;
// 256 MiB is orders of magnitude above any legitimate chunk).
const maxChunkBytes = 256 << 20

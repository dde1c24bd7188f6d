package spill

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"spear/internal/storage"
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

// CodecStore is a storage.SpillStore wrapper that stores each chunk in
// the compressed chunk encoding. The encoded bytes ride inside a single
// carrier tuple per chunk (one string value), so any SpillStore
// implementation — Mem, File, Latency-wrapped — transports them
// unchanged and a remote store's per-byte cost shrinks with the
// encoding. One Store call still appends exactly one chunk to the
// segment, preserving Truncate's chunk-count semantics for checkpoint
// rewind.
type CodecStore struct {
	inner storage.SpillStore
	level int

	rawBytes      atomic.Int64
	encodedBytes  atomic.Int64
	tuplesStored  atomic.Int64
	tuplesFetched atomic.Int64
}

// NewCodecStore wraps inner; level is the flate level (0 = the column
// image as it is, no block compression).
func NewCodecStore(inner storage.SpillStore, level int) (*CodecStore, error) {
	if level < 0 || level > 9 {
		return nil, fmt.Errorf("spill: flate level %d outside [0, 9]", level)
	}
	return &CodecStore{inner: inner, level: level}, nil
}

// Store implements storage.SpillStore.
func (c *CodecStore) Store(key string, ts []tuple.Tuple) error {
	enc, err := EncodeChunk(ts, c.level)
	if err != nil {
		return err
	}
	var raw int64
	for i := range ts {
		raw += int64(ts[i].MemSize())
	}
	c.rawBytes.Add(raw)
	c.encodedBytes.Add(int64(len(enc)))
	c.tuplesStored.Add(int64(len(ts)))
	carrier := tuple.New(0, tuple.String_(string(enc)))
	if len(ts) > 0 {
		carrier.Ts = ts[0].Ts
	}
	return c.inner.Store(key, []tuple.Tuple{carrier})
}

// Get implements storage.SpillStore, decoding each carrier tuple back
// into its chunk.
func (c *CodecStore) Get(key string) ([]tuple.Tuple, error) {
	carriers, err := c.inner.Get(key)
	if err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	for i := range carriers {
		if len(carriers[i].Vals) != 1 || carriers[i].Vals[0].Kind() != tuple.KindString {
			return nil, fmt.Errorf("%w: segment %q carrier %d", ErrChunkCorrupt, key, i)
		}
		ts, err := DecodeChunk([]byte(carriers[i].Vals[0].AsString()))
		if err != nil {
			return nil, fmt.Errorf("spill: segment %q chunk %d: %w", key, i, err)
		}
		out = append(out, ts...)
	}
	c.tuplesFetched.Add(int64(len(out)))
	return out, nil
}

// Delete implements storage.SpillStore.
func (c *CodecStore) Delete(key string) error { return c.inner.Delete(key) }

// List implements storage.SpillStore.
func (c *CodecStore) List(prefix string) ([]string, error) { return c.inner.List(prefix) }

// Truncate implements storage.SpillStore.
func (c *CodecStore) Truncate(key string, chunks int) error { return c.inner.Truncate(key, chunks) }

// Stats implements storage.SpillStore. Byte counters come from the
// inner store (encoded traffic — what actually moved); the tuple
// counters are rewritten to the logical counts, since the inner store
// only ever sees one carrier tuple per chunk.
func (c *CodecStore) Stats() storage.Stats {
	s := c.inner.Stats()
	s.TuplesStored = c.tuplesStored.Load()
	s.TuplesFetched = c.tuplesFetched.Load()
	return s
}

// RawBytes is the pre-encoding (in-memory) footprint of every chunk
// stored; EncodedBytes the post-encoding size. Their ratio is the
// codec's compression ratio.
func (c *CodecStore) RawBytes() int64 { return c.rawBytes.Load() }

// EncodedBytes reports the encoded bytes handed to the inner store.
func (c *CodecStore) EncodedBytes() int64 { return c.encodedBytes.Load() }

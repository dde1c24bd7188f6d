package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"spear/internal/tuple"
)

// Manifest describes one complete checkpoint: the spout offset it
// covers, and the store key, size, and checksum of every operator
// snapshot blob. A checkpoint is usable iff its manifest decodes, every
// listed blob is present, and every checksum matches — the manifest is
// written last, so a crash mid-checkpoint leaves at worst an
// unreferenced blob, never a referenced-but-missing one.
type Manifest struct {
	// ID is the checkpoint's monotonically increasing identifier (the
	// barrier id the spout broadcast).
	ID uint64
	// Created is the commit wall-clock time, Unix nanoseconds.
	Created int64
	// Offset is the number of spout tuples the checkpoint covers; the
	// spout is sought here on recovery.
	Offset int64
	// Operators lists one entry per windowed worker, sorted by worker.
	Operators []Operator
}

// Operator records one worker's snapshot blob.
type Operator struct {
	// Worker is the windowed-stage worker index.
	Worker int
	// Key is the store key holding the snapshot blob.
	Key string
	// Size is the blob length in bytes.
	Size int64
	// Sum is the FNV-64a checksum of the blob.
	Sum uint64
}

// Manifest wire format: magic, version, header, operator table, then an
// FNV-64a checksum of everything before it.
const (
	manifestMagic   = "SPMF"
	manifestVersion = 1
)

// BlobSum returns the checksum the manifest records for a blob.
func BlobSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// EncodeManifest serializes m.
func EncodeManifest(m Manifest) []byte {
	dst := []byte(manifestMagic)
	dst = tuple.AppendUvar(dst, manifestVersion)
	dst = tuple.AppendU64(dst, m.ID)
	dst = tuple.AppendI64(dst, m.Created)
	dst = tuple.AppendI64(dst, m.Offset)
	dst = tuple.AppendUvar(dst, uint64(len(m.Operators)))
	for _, op := range m.Operators {
		dst = tuple.AppendUvar(dst, uint64(op.Worker))
		dst = tuple.AppendStr(dst, op.Key)
		dst = tuple.AppendUvar(dst, uint64(op.Size))
		dst = tuple.AppendU64(dst, op.Sum)
	}
	return tuple.AppendU64(dst, BlobSum(dst))
}

// DecodeManifest parses and validates b. Any malformation — truncation,
// bad magic, unknown version, checksum mismatch, duplicate or
// out-of-order workers, negative sizes — yields an error wrapping
// tuple.ErrCorrupt, never a panic.
func DecodeManifest(b []byte) (Manifest, error) {
	var m Manifest
	if len(b) < len(manifestMagic)+8 {
		return m, fmt.Errorf("%w: manifest of %d bytes", tuple.ErrCorrupt, len(b))
	}
	if string(b[:len(manifestMagic)]) != manifestMagic {
		return m, fmt.Errorf("%w: manifest magic %q", tuple.ErrCorrupt, b[:len(manifestMagic)])
	}
	body, trailer := b[:len(b)-8], b[len(b)-8:]
	if want := BlobSum(body); want != binary.LittleEndian.Uint64(trailer) {
		return m, fmt.Errorf("%w: manifest checksum", tuple.ErrCorrupt)
	}
	rd := tuple.NewWireReader(body[len(manifestMagic):])
	if v := rd.Uvar(); rd.Err() == nil && v != manifestVersion {
		return m, fmt.Errorf("%w: manifest version %d", tuple.ErrCorrupt, v)
	}
	m.ID = rd.U64()
	m.Created = rd.I64()
	m.Offset = rd.I64()
	n := rd.Count(2)
	if rd.Err() != nil {
		return Manifest{}, rd.Err()
	}
	m.Operators = make([]Operator, 0, n)
	for i := 0; i < n; i++ {
		op := Operator{
			Worker: int(rd.Uvar()),
			Key:    rd.Str(),
			Size:   int64(rd.Uvar()),
			Sum:    rd.U64(),
		}
		if rd.Err() != nil {
			return Manifest{}, rd.Err()
		}
		if op.Worker != i {
			return Manifest{}, fmt.Errorf("%w: manifest operator %d has worker %d", tuple.ErrCorrupt, i, op.Worker)
		}
		if op.Size < 0 {
			return Manifest{}, fmt.Errorf("%w: manifest blob size %d", tuple.ErrCorrupt, op.Size)
		}
		if op.Key == "" {
			return Manifest{}, fmt.Errorf("%w: manifest operator %d has empty key", tuple.ErrCorrupt, i)
		}
		m.Operators = append(m.Operators, op)
	}
	if err := rd.Done(); err != nil {
		return Manifest{}, err
	}
	if m.Offset < 0 {
		return Manifest{}, fmt.Errorf("%w: manifest offset %d", tuple.ErrCorrupt, m.Offset)
	}
	return m, nil
}

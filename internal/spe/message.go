// Package spe is the stream processing engine substrate: a Storm-like
// operator runtime executing a continuous query's DAG with one goroutine
// per worker thread, bounded channels for back-pressure, shuffle/fields
// partitioning into the windowed stage, and in-band watermark control
// tuples.
//
// A topology has the shape the paper evaluates (Fig. 2): a single spout
// reading the input stream and running the optional stateless stages on
// it as one chain, one windowed stateful stage with configurable
// parallelism, and a sink collecting window results.
//
// Every channel into a worker carries Batch values: a run of data
// tuples, or one control. This file holds that unit and
// the partitioners that pick a run's destination; batch.go holds the
// sender side (batcher, run pool).
package spe

import (
	"hash/maphash"

	"spear/internal/tuple"
)

// Control says what a Batch carries besides, or instead of, data.
type Control uint8

const (
	// Data: the batch is a run of tuples, in Rows.
	Data Control = iota
	// Watermark: a control tuple carrying a timestamp (§2: "sent by SPE
	// components periodically"); WM holds it.
	Watermark
	// Barrier: a checkpoint barrier (Chandy-Lamport-style, injected by
	// the spout; a worker snapshots when it arrives); Barrier holds the
	// checkpoint id.
	Barrier
)

// Batch is the unit of transfer on every hop, sent by value: exactly
// one of a run of data tuples (Rows), a watermark, or a barrier. Every
// hop carries rows, columnar run or not: a columnar worker views the run
// it receives through its own col.ColumnBatch.
//
// The receiver owns what a data batch carries: Rows came from the
// engine's run pool and goes back to it once the tuples have been handed
// on. Tuples are copied out of a run by value wherever they are kept, so
// recycling one never aliases operator state. Their Vals are not copied:
// Slab, the values a shard's decoder carved the rows' Vals from, goes
// back to the pool only when the worker's manager keeps no row
// (core.KeepsRows).
type Batch struct {
	Rows    []tuple.Tuple
	Slab    []tuple.Value // nil unless a decoder filled Rows
	Ctl     Control
	WM      int64  // meaningful when Ctl == Watermark
	Barrier uint64 // checkpoint id; meaningful when Ctl == Barrier
}

// Len is the number of data tuples the batch carries; 0 for a control.
func (b Batch) Len() int { return len(b.Rows) }

// Partitioner decides which of n downstream workers receives a tuple —
// the "propagation of tuples between execution stages ... using
// partitioning techniques" of §2. A partitioner belongs to the one
// sending goroutine, so it needs no locking.
type Partitioner interface {
	Route(t tuple.Tuple, n int) int
}

// Shuffle distributes tuples round-robin, the default for scalar
// operations where any worker may process any tuple.
type Shuffle struct{ next int }

// NewShuffle returns a round-robin partitioner.
func NewShuffle() *Shuffle { return &Shuffle{} }

// NewShuffleAt returns a round-robin partitioner whose phase starts at
// start. Checkpoint recovery uses it so the spout routes replayed source
// tuple number k to the same worker the crashed run sent it to: the
// phase of a fresh shuffle after k tuples is simply k.
func NewShuffleAt(start int) *Shuffle {
	if start < 0 {
		start = 0
	}
	return &Shuffle{next: start}
}

// Route implements Partitioner. The counter is kept in [0, n), so the
// next index is a compare-and-wrap, not a division: an unbounded
// increment would eventually overflow int, and a negative counter must
// never index out of bounds. A counter at or past n (n shrank between
// calls, or a recovery phase ahead of it) is reduced first.
func (s *Shuffle) Route(_ tuple.Tuple, n int) int {
	i := s.next
	if i < 0 {
		i = 0
	} else if i >= n {
		i %= n
	}
	s.next = i + 1
	if s.next >= n {
		s.next = 0
	}
	return i
}

// Fields routes tuples by hashing a grouping key, so all tuples of a
// group meet at the same worker — required by grouped stateful
// operations. The engine routes with SeededFields; benchmark/'s spe
// probe times Fields.
type Fields struct {
	key  tuple.KeyExtractor
	seed maphash.Seed
}

// NewFields returns a hash partitioner over key.
func NewFields(key tuple.KeyExtractor, seed maphash.Seed) *Fields {
	if key == nil {
		panic("spe: Fields partitioner needs a key extractor")
	}
	return &Fields{key: key, seed: seed}
}

// Route implements Partitioner.
func (f *Fields) Route(t tuple.Tuple, n int) int {
	return int(maphash.String(f.seed, f.key(t)) % uint64(n))
}

// SeededFields routes tuples by a deterministic seeded hash of the
// grouping key (FNV-1a with a SplitMix64-style finalizer). Unlike
// Fields, whose maphash seed is randomized per process, SeededFields
// routes every group to the same worker across restarts — required for
// checkpoint recovery, where replayed tuples must reach the worker
// whose restored state already holds their group. Topology.Run routes
// every keyed stage with it.
type SeededFields struct {
	key  tuple.KeyExtractor
	seed uint64
}

// NewSeededFields returns a deterministic hash partitioner over key.
func NewSeededFields(key tuple.KeyExtractor, seed int64) *SeededFields {
	if key == nil {
		panic("spe: SeededFields partitioner needs a key extractor")
	}
	return &SeededFields{key: key, seed: uint64(seed)}
}

// Route implements Partitioner.
func (f *SeededFields) Route(t tuple.Tuple, n int) int {
	key := f.key(t)
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= f.seed * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return int(h % uint64(n))
}

package spe

import (
	"sync"

	"spear/internal/tuple"
)

// This file is the sending side of a hop. A sender appends each routed
// tuple to its destination's run and ships the run as one Batch when it
// is full; the receiver hands the run on and gives it back to the run
// pool. Nothing else is pooled: controls cross the channel inside the
// Batch value itself.

// defaultBatchSize is the run length selected when Config.BatchSize is
// zero. 64 tuples (2 KB) stay in L1 while a channel synchronization is
// amortized down to 1/64 of its per-tuple cost.
const defaultBatchSize = 64

// queueFor is every engine channel's capacity in batches: 1 K
// tuples of runs of batchSize, at least two (measured at the default
// batch size only, EXPERIMENTS "PR 41"). The spout runs at most that far
// ahead of a worker, and a full edge shows overload that soon.
func queueFor(batchSize int) int { return max(2, 1024/batchSize) }

// runPool recycles the []tuple.Tuple runs that carry data between
// senders and receivers, so the steady state allocates nothing per
// run, and the value slabs a shard's decoder carves the rows of a
// network run from. Both cross goroutine boundaries: a sender fills a
// run, the receiving worker hands its tuples on and returns it here.
type runPool struct {
	size  int
	runs  slicePool[tuple.Tuple]
	slabs slicePool[tuple.Value]
}

func newRunPool(size int) *runPool { return &runPool{size: size} }

// get returns an empty run with capacity for a full batch.
func (p *runPool) get() []tuple.Tuple {
	if run := p.runs.get(); run != nil {
		return run
	}
	return make([]tuple.Tuple, 0, p.size)
}

// recycle returns what a data batch carries to the pool: its run and,
// when a decoder filled the run, the slab of its values. The caller
// must hold no row of either.
func (p *runPool) recycle(b Batch) {
	p.runs.put(b.Rows)
	p.slabs.put(b.Slab)
}

// slicePool recycles slices of one element type. It keeps pointers to
// slice headers (a bare slice would be boxed on every Put); spare holds
// the emptied headers between a get and the next put.
type slicePool[T any] struct {
	full  sync.Pool // *[]T, each holding a slice
	spare sync.Pool // *[]T, each nil
}

// get returns a recycled slice, empty, or nil when the pool has none.
func (p *slicePool[T]) get() []T {
	h, _ := p.full.Get().(*[]T)
	if h == nil {
		return nil
	}
	s := *h
	*h = nil
	p.spare.Put(h)
	return s
}

// put recycles s. The caller must no longer reference it.
func (p *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	h, _ := p.spare.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s[:0]
	p.full.Put(h)
}

// batcher is the sending end of the hop — the spout's: a run in
// progress per destination, shipped when it reaches size. Every
// destination's run is open from construction, with room for a full
// batch, so a send is an append and a length compare. Controls
// (watermarks and checkpoint barriers) force a flush of every pending
// run and then travel alone, so the order every receiver observes is
// exactly the order a per-tuple sender would have produced: all data
// routed before a control is delivered before it.
//
// A batcher belongs to one sending goroutine and needs no locking.
type batcher struct {
	outs []chan Batch
	runs [][]tuple.Tuple
	part Partitioner
	size int
	pool *runPool
}

func newBatcher(outs []chan Batch, part Partitioner, size int, pool *runPool) *batcher {
	b := &batcher{outs: outs, runs: make([][]tuple.Tuple, len(outs)), part: part, size: max(size, 1), pool: pool}
	for d := range b.runs {
		b.runs[d] = pool.get()
	}
	return b
}

// route picks t's destination. A hop with one destination has nothing
// to decide and does not pay for its partitioner (a division for
// Shuffle, a string hash for Fields).
func (b *batcher) route(t tuple.Tuple) int {
	if len(b.outs) == 1 {
		return 0
	}
	return b.part.Route(t, len(b.outs))
}

// sendTo appends t to destination d's run, shipping the run when it
// reaches the batch size. The channel send blocks when the destination
// queue is full — the engine's bounded-queue back-pressure, at run
// granularity.
func (b *batcher) sendTo(d int, t tuple.Tuple) {
	b.runs[d] = append(b.runs[d], t)
	if len(b.runs[d]) >= b.size {
		b.ship(d)
	}
}

// ship sends destination d's run and opens the next from the pool.
func (b *batcher) ship(d int) {
	b.outs[d] <- Batch{Rows: b.runs[d]}
	b.runs[d] = b.pool.get()
}

// flushAll ships every pending run. Callers invoke it at stream end
// (before closing the downstream channels) and before any control
// broadcast.
func (b *batcher) flushAll() {
	for d, run := range b.runs {
		if len(run) > 0 {
			b.ship(d)
		}
	}
}

// watermark and barrier flush all pending data and then deliver the
// control to every destination. Firing and snapshotting both rely on
// this ordering: a control may never overtake data buffered before it,
// and a barrier must partition each channel's stream exactly at its
// injection point.
func (b *batcher) watermark(wm int64) {
	b.broadcast(Batch{Ctl: Watermark, WM: wm})
}

func (b *batcher) barrier(id uint64) {
	b.broadcast(Batch{Ctl: Barrier, Barrier: id})
}

func (b *batcher) broadcast(ctl Batch) {
	b.flushAll()
	for _, c := range b.outs {
		c <- ctl
	}
}

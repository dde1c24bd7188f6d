package spe

import (
	"spear/internal/col"
	"spear/internal/tuple"
)

// fusedChain is the operator-fusion fast lane: when a columnar run has
// stateless stages, no checkpoint hooks, and no network fabric, the
// engine collapses the whole map→filter→…→route chain into this one
// structure driven directly by the spout goroutine. A micro-batch of
// tuples is pushed through every stage in a single kernel invocation —
// one selection-vector pass per stage, no intermediate channel hop, no
// per-stage goroutines, and no materialization of filtered batches:
// dropped tuples just leave the selection vector.
//
// Survivors leave the chain already in column format: each destination
// worker has a pooled ColumnBatch the chain appends routed tuples into,
// shipped whole (batcher.sendCols) when it reaches the micro-batch
// size. The window worker ingests the batch directly through its
// OnColumnBatch kernel — no row run in between, no second row→column
// conversion on the receiving side — and recycles it.
//
// Semantics are the row pipeline's: stages apply in order, a stage
// returning ok=false drops the tuple, and survivors are routed to the
// windowed stage through the batcher's one partitioner in survivor order —
// exactly the stream a single-worker stage pipeline would produce. The
// caller must flush() before broadcasting any control tuple so that no
// buffered data — in the stage buffer or in a partially-filled lane —
// is overtaken by a watermark.
type fusedChain struct {
	fns   []MapFunc
	out   *batcher
	size  int
	buf   []tuple.Tuple
	sel   []int32
	lanes []*col.ColumnBatch // per-destination in-progress column batches
}

func newFusedChain(stages []statelessStage, out *batcher, batchSize int) *fusedChain {
	f := &fusedChain{
		fns:   make([]MapFunc, len(stages)),
		out:   out,
		size:  batchSize,
		buf:   make([]tuple.Tuple, 0, batchSize),
		sel:   make([]int32, 0, batchSize),
		lanes: make([]*col.ColumnBatch, len(out.outs)),
	}
	for i, s := range stages {
		f.fns[i] = s.fn
	}
	return f
}

// push buffers t, running the fused kernel when the batch fills.
func (f *fusedChain) push(t tuple.Tuple) {
	f.buf = append(f.buf, t)
	if len(f.buf) >= cap(f.buf) {
		f.run()
	}
}

// run drives the buffered batch through every stage and appends the
// survivors to their destinations' column batches, shipping each lane
// as it fills. Stage functions may rewrite the tuple in place in the
// batch buffer; the selection vector tracks which slots are still
// alive, compacting as filters drop tuples.
func (f *fusedChain) run() {
	if len(f.buf) == 0 {
		return
	}
	sel := f.sel[:0]
	for i := range f.buf {
		sel = append(sel, int32(i))
	}
	for _, fn := range f.fns {
		k := 0
		for _, si := range sel {
			if t, ok := fn(f.buf[si]); ok {
				f.buf[si] = t
				sel[k] = si
				k++
			}
		}
		sel = sel[:k]
	}
	for _, si := range sel {
		t := f.buf[si]
		d := f.out.route(t)
		cb := f.lanes[d]
		if cb == nil {
			cb = col.Get()
			f.lanes[d] = cb
		}
		cb.AppendRow(t)
		if cb.Len() >= f.size {
			f.out.sendCols(d, cb)
			f.lanes[d] = nil
		}
	}
	f.sel = sel[:0]
	f.buf = f.buf[:0]
}

// flush drains everything buffered — the stage batch and every
// partially-filled lane — downstream. Control tuples (watermarks, end
// of stream) must not overtake buffered data, so the engine calls this
// before every broadcast.
func (f *fusedChain) flush() {
	f.run()
	for d, cb := range f.lanes {
		if cb != nil && cb.Len() > 0 {
			f.out.sendCols(d, cb)
			f.lanes[d] = nil
		}
	}
}

package spe

import (
	"spear/internal/col"
	"spear/internal/tuple"
)

// fusedChain is the one executor of a topology's stateless stages: the
// whole map→filter→…→route chain runs inside the spout goroutine, on
// every plan — rows or columns, checkpointed or not, local or over a
// fabric. A micro-batch of source tuples is pushed through every stage
// in a single kernel invocation — one selection-vector pass per stage,
// no channel hop between stages, no stage goroutines, and no
// materialization of filtered batches: dropped tuples just leave the
// selection vector.
//
// Survivors leave the chain the way the run ingests them. A columnar
// run appends them to one pooled ColumnBatch per destination worker,
// shipped whole (batcher.sendCols) when it reaches the micro-batch
// size, so the window worker feeds its OnColumnBatch kernel with no row
// run in between; a row run appends them to the batcher's runs.
//
// Semantics are those of applying the stages to the stream in order: a
// stage returning ok=false drops the tuple, survivors keep source
// order. Routing is a function of the input alone, so a recovered run
// replays tuple k to the worker the crashed run sent it to whatever the
// chain filters: under Shuffle a survivor keeps the round-robin slot of
// the source tuple it came from (the partitioner is advanced once per
// source tuple, before the stages); under Fields the key is hashed
// after the chain, on the tuple the window stage will see. The caller
// must flush() before broadcasting any control so that no buffered data
// — in the stage buffer or in a partially-filled lane — is overtaken by
// a watermark or lands on the wrong side of a barrier.
type fusedChain struct {
	fns   []MapFunc
	out   *batcher
	size  int
	slots *Shuffle // non-nil: destinations drawn per source tuple into dst
	buf   []tuple.Tuple
	sel   []int32
	dst   []int32
	lanes []*col.ColumnBatch // columnar runs: per-destination batch in progress
}

func newFusedChain(stages []statelessStage, out *batcher, batchSize int, columnar bool) *fusedChain {
	f := &fusedChain{
		fns:  make([]MapFunc, len(stages)),
		out:  out,
		size: batchSize,
		buf:  make([]tuple.Tuple, 0, batchSize),
		sel:  make([]int32, 0, batchSize),
	}
	if rr, ok := out.part.(*Shuffle); ok && len(out.outs) > 1 {
		f.slots, f.dst = rr, make([]int32, batchSize)
	}
	if columnar {
		f.lanes = make([]*col.ColumnBatch, len(out.outs))
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

// run drives the buffered batch through every stage and hands the
// survivors to their destinations. Stage functions may rewrite the
// tuple in place in the batch buffer; the selection vector tracks which
// slots are still alive, compacting as filters drop tuples.
func (f *fusedChain) run() {
	if len(f.buf) == 0 {
		return
	}
	sel := f.sel[:0]
	for i := range f.buf {
		sel = append(sel, int32(i))
	}
	if f.slots != nil {
		for i := range f.buf {
			f.dst[i] = int32(f.slots.Route(f.buf[i], len(f.out.outs)))
		}
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
		var d int
		if f.slots != nil {
			d = int(f.dst[si])
		} else {
			d = f.out.route(t)
		}
		if f.lanes == nil {
			f.out.sendTo(d, t)
			continue
		}
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
// partially-filled lane — into the batcher. Controls (watermarks,
// barriers, end of stream) must not overtake buffered data, so the
// engine calls this before every broadcast.
func (f *fusedChain) flush() {
	f.run()
	for d, cb := range f.lanes {
		if cb != nil && cb.Len() > 0 {
			f.out.sendCols(d, cb)
			f.lanes[d] = nil
		}
	}
}

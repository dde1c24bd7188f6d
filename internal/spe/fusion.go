package spe

import (
	"spear/internal/col"
	"spear/internal/tuple"
)

// fusedChain is the one executor of a topology's stateless stages: the
// whole map→filter→…→route chain runs inside the spout goroutine, on
// every plan — rows or columns, checkpointed or not, local or over a
// fabric. It is tuple-at-a-time: a source tuple goes through every
// stage in a local and its survivor straight to its destination, with
// no channel hop, no stage goroutine and no buffer between stages. A
// stage is an opaque row closure, so there is nothing a stage-major
// loop over a batch could vectorise, and what such a loop does pay is a
// barriered 32-byte store per stage per tuple (DESIGN.md §16.3).
//
// Survivors leave the chain the way the run ingests them. A columnar
// run appends them to one pooled ColumnBatch per destination worker,
// shipped whole (batcher.sendCols) when it reaches the micro-batch
// size, so the window worker feeds its OnColumnBatch kernel with no row
// run in between; a row run appends them to the batcher's runs.
//
// Semantics are those of applying the stages to the stream in order: a
// stage returning ok=false drops the tuple, survivors keep source
// order, and each stage sees its input in the order a stage of its own
// would. Routing is a function of the input alone, so a recovered run
// replays tuple k to the worker the crashed run sent it to whatever the
// chain filters: under Shuffle a survivor keeps the round-robin slot of
// the source tuple it came from (the partitioner is advanced once per
// source tuple, before the stages); under Fields the key is hashed
// after the chain, on the tuple the window stage will see. Only the
// lanes buffer: the caller must flush() before broadcasting any control
// so that no survivor in a partially-filled lane is overtaken by a
// watermark or lands on the wrong side of a barrier.
type fusedChain struct {
	fns   []MapFunc
	out   *batcher
	size  int
	slots *Shuffle           // non-nil: the destination is drawn per source tuple
	lanes []*col.ColumnBatch // columnar runs: per-destination batch in progress
}

func newFusedChain(stages []statelessStage, out *batcher, batchSize int, columnar bool) *fusedChain {
	f := &fusedChain{
		fns:  make([]MapFunc, len(stages)),
		out:  out,
		size: batchSize,
	}
	if rr, ok := out.part.(*Shuffle); ok && len(out.outs) > 1 {
		f.slots = rr
	}
	if columnar {
		f.lanes = make([]*col.ColumnBatch, len(out.outs))
	}
	for i, s := range stages {
		f.fns[i] = s.fn
	}
	return f
}

// push runs t through every stage and hands the survivor, if there is
// one, to its destination.
func (f *fusedChain) push(t tuple.Tuple) {
	var d int
	if f.slots != nil {
		d = f.slots.Route(t, len(f.out.outs))
	}
	for _, fn := range f.fns {
		var ok bool
		if t, ok = fn(t); !ok {
			return
		}
	}
	if f.slots == nil {
		d = f.out.route(t)
	}
	if f.lanes == nil {
		f.out.sendTo(d, t)
		return
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

// flush ships every partially-filled lane. Controls (watermarks,
// barriers, end of stream) must not overtake buffered data, so the
// engine calls this before every broadcast.
func (f *fusedChain) flush() {
	for d, cb := range f.lanes {
		if cb != nil && cb.Len() > 0 {
			f.out.sendCols(d, cb)
			f.lanes[d] = nil
		}
	}
}

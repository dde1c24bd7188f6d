package spe

import "spear/internal/tuple"

// fusedChain is the one executor of a topology's stateless stages: the
// whole map→filter→…→route chain runs inside the spout goroutine, on
// every plan — checkpointed or not, local or over a fabric. It is
// tuple-at-a-time: a source tuple goes through every stage in a local
// and its survivor straight to its destination's run
// in the batcher, with no channel hop, no stage goroutine and no buffer
// between stages. A stage is an opaque row closure, so there is nothing
// a stage-major loop over a batch could vectorise, and what such a loop
// does pay is a barriered 32-byte store per stage per tuple (DESIGN.md
// §16.3). The chain buffers nothing: what it has not handed to the
// batcher is the one tuple in flight, so the batcher's flush before a
// control covers every survivor.
//
// Semantics are those of applying the stages to the stream in order: a
// stage returning ok=false drops the tuple, survivors keep source
// order, and each stage sees its input in the order a stage of its own
// would. Routing is a function of the input alone, so a recovered run
// replays tuple k to the worker the crashed run sent it to whatever the
// chain filters: under Shuffle a survivor keeps the round-robin slot of
// the source tuple it came from (the partitioner is advanced once per
// source tuple, before the stages); under Fields the key is hashed
// after the chain, on the tuple the window stage will see.
type fusedChain struct {
	fns   []MapFunc
	out   *batcher
	slots *Shuffle // non-nil: the destination is drawn per source tuple
}

func newFusedChain(stages []statelessStage, out *batcher) *fusedChain {
	f := &fusedChain{
		fns: make([]MapFunc, len(stages)),
		out: out,
	}
	if rr, ok := out.part.(*Shuffle); ok && len(out.outs) > 1 {
		f.slots = rr
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
	f.out.sendTo(d, t)
}

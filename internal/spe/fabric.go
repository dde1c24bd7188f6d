package spe

import "spear/internal/core"

// This file is the seam where the windowed stage leaves the process: a
// Fabric opens the same chan Batch the local workers read, so the
// sender upstream of it is the spout's own batcher and knows nothing of
// where a run goes. What a fabric must honour is the
// ownership rule of Batch — a run it has encoded goes back through
// FabricEnv.Recycle — and per-channel order.

// DefaultBatchSize mirrors Config.BatchSize's default so a fabric can
// advertise the exact batch size a zero-config run will use.
const DefaultBatchSize = defaultBatchSize

// SinkItem is one window result traveling from a windowed worker to the
// sink, tagged with the (global) worker index that produced it.
type SinkItem struct {
	Worker int
	Res    core.Result
}

// FabricEnv hands a fabric the engine-side callbacks it needs to
// participate in a run without reaching into engine internals.
type FabricEnv struct {
	// Recycle returns what a data batch carries to the engine's run
	// pool; fabrics call it after encoding a batch for the wire so the
	// steady state stays allocation-free, exactly as a local windowed
	// worker would.
	Recycle func(Batch)
	// Fail latches the first transport failure into the run. The engine
	// reacts as it does to any worker error: the spout stops feeding,
	// the pipeline drains, and Run returns the error.
	Fail func(error)
}

// Fabric abstracts where the windowed stage executes. A local run wires
// worker goroutines directly; a distributed run installs a fabric whose
// channels are network outboxes pumped to remote shard nodes. The
// engine's contract is unchanged either way: it scatters batches
// (runs, watermarks, barriers — in source order) into the returned
// channels, closes every one at stream end, and drains
// Results into the sink until it closes.
type Fabric interface {
	// Open is called once, before any engine goroutine starts, with the
	// windowed parallelism and the configured queue size (in batches)
	// each returned channel must buffer. The spout is the only sender
	// into every channel.
	Open(par, queueSize int, env FabricEnv) ([]chan Batch, error)
	// Results returns the fan-in of remote window results. It must
	// close once every remote worker has finished (or the fabric has
	// failed), or the run cannot terminate.
	Results() <-chan []SinkItem
	// Err reports the first transport or remote failure; the engine
	// consults it after Results closes.
	Err() error
}

// SetFabric installs a fabric for the windowed stage. The stage's
// factory is still required (it defines the topology) but no local
// managers are built: input batches leave through the fabric's
// channels and results arrive through its fan-in.
func (tp *Topology) SetFabric(f Fabric) *Topology {
	tp.fabric = f
	return tp
}

package spe

import "spear/internal/core"

// This file is the seam between the spout and the windowed stage: a
// Fabric opens the chan Batch the spout's batcher scatters into, which
// knows nothing of where a run goes. The topology's own fabric is one
// in-process shard; a network fabric pumps the same channels to shard
// nodes. What a fabric must honour is the ownership rule of Batch — a
// run it has consumed goes back through FabricEnv.Recycle — and
// per-channel order.

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

	// The run pool and error slot behind Recycle and Fail, which the
	// in-process shard's workers use directly.
	pool   *runPool
	failed *errOnce
}

// Fabric abstracts where the windowed stage executes. A topology runs
// its workers as one in-process shard (localFabric) unless a network
// fabric is installed, whose channels are outboxes pumped to remote
// shard nodes. The engine's contract is the same either way: it
// scatters batches (runs, watermarks, barriers — in source order) into
// the returned channels, closes every one at stream end, and drains
// Results into the sink until it closes. A fabric registers the probes
// of the channels it owns.
type Fabric interface {
	// Open is called once per run, before the spout starts, with the
	// windowed parallelism and the capacity in batches of every channel
	// the fabric owns: queueFor(BatchSize), about 1 K tuples.
	// The spout is the only sender into every channel.
	Open(par, queueSize int, env FabricEnv) ([]chan Batch, error)
	// Results returns the fan-in of window results. It must close once
	// every worker has finished (or the fabric has failed), or the run
	// cannot terminate.
	Results() <-chan []SinkItem
	// Err reports the first worker, transport or remote failure; the
	// engine consults it after Results closes.
	Err() error
}

// SetFabric installs a fabric for the windowed stage in place of the
// in-process shard. The stage's factory is still required (it defines
// the topology) but no local managers are built: input batches leave
// through the fabric's channels and results arrive through its fan-in.
func (tp *Topology) SetFabric(f Fabric) *Topology {
	tp.fabric = f
	return tp
}

// localFabric is a topology's own fabric: the whole windowed stage as
// one in-process shard over global workers [0, par), started on the
// run's pool and error slot, so the runs the spout hands out are the
// ones the workers recycle and a worker's error stops the spout.
type localFabric struct {
	tp *Topology
	sr *ShardRun
}

func (l *localFabric) Open(par, queueSize int, env FabricEnv) ([]chan Batch, error) {
	tp := l.tp
	sr, err := startShard(Shard{
		Name: tp.windowed.name, Lo: 0, Hi: par,
		BatchSize: tp.cfg.BatchSize, Factory: tp.windowed.factory, Hooks: tp.cfg.Checkpoint, Obs: tp.cfg.Obs,
	}, queueSize, queueSize, env.pool, env.failed)
	if err != nil {
		return nil, err
	}
	l.sr = sr
	return sr.In, nil
}

func (l *localFabric) Results() <-chan []SinkItem { return l.sr.Results }

func (l *localFabric) Err() error { return l.sr.Wait() }

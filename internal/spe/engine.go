package spe

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"spear/internal/core"
	"spear/internal/obs"
	"spear/internal/tuple"
	"spear/internal/watermark"
)

// MapFunc transforms one tuple into at most one tuple; returning
// ok=false drops it (filter). This covers the stateless operations of
// the paper's CQs (e.g. the time-annotation stage of Fig. 1).
type MapFunc func(tuple.Tuple) (out tuple.Tuple, ok bool)

// ManagerFactory builds the stateful window manager for one worker of
// the windowed stage. The worker index lets callers derive per-worker
// seeds, spill keys, and metrics.
type ManagerFactory func(worker int) (core.Manager, error)

// ResultSink receives every window result. It is invoked from a single
// goroutine, in per-worker order.
type ResultSink func(worker int, r core.Result)

// Config configures an engine run.
type Config struct {
	// BatchSize is the run length for inter-stage channel hops:
	// senders accumulate up to BatchSize data tuples per destination
	// before a channel send, flushing early on watermarks, barriers,
	// and stream end (control tuples always travel alone behind a full
	// flush, preserving per-tuple ordering semantics exactly). 1
	// reproduces per-tuple transfer; zero selects the default of 64.
	BatchSize int
	// Columnar is inert: every worker feeds its manager OnTupleBatch.
	// The field stays because benchmark/layers/spe sets it (ROADMAP
	// 3(e)).
	Columnar bool
	// WatermarkPeriod is the event-time distance between watermarks
	// emitted by the spout. Zero disables watermark generation (for
	// count-based windows, which close on arrival).
	WatermarkPeriod int64
	// WatermarkLag holds watermarks back to tolerate bounded
	// out-of-order arrival.
	WatermarkLag int64
	// Checkpoint enables barrier snapshots; nil runs without
	// checkpointing (zero overhead on the hot path). The hooks are
	// wired by the checkpoint coordinator.
	Checkpoint *CheckpointHooks
	// FieldsSeed seeds the keyed partitioner (SeededFields), so that a
	// group goes to the same worker in every run with the seed: across
	// restarts, which checkpoint recovery of grouped (keyBy) topologies
	// needs, and across the processes of a distributed run.
	FieldsSeed int64
	// Obs, when non-nil, receives live observability probes: per-edge
	// queue-depth closures, per-worker watermark gauges, batch-occupancy
	// records, source progress, and (if its trace ring is enabled)
	// sampled tuple-lifecycle events. nil runs fully uninstrumented —
	// the hot loops pay one nil check per tuple at most.
	Obs *obs.Instruments
}

// CheckpointHooks is the engine side of the checkpoint protocol. The
// spout polls Trigger between tuples and broadcasts a barrier when a
// checkpoint starts; a windowed worker has one sender, so the barrier's
// arrival is its snapshot point: everything before it is in the
// manager, nothing after it is, and the worker calls Snapshot there. On
// restart, Restore is called per worker before its shard starts and
// the spout is sought to StartOffset.
//
// All hooks are optional except that a non-nil CheckpointHooks with a
// nil Trigger never checkpoints (useful for restore-only runs).
type CheckpointHooks struct {
	// StartOffset is the absolute tuple offset to resume the spout
	// from; 0 starts from the beginning.
	StartOffset int64
	// Restore is called once per windowed worker, before the run
	// starts, to load the manager's snapshotted state.
	Restore func(worker int, mgr core.Manager) error
	// Trigger is polled by the spout before emitting the tuple at
	// offset. Returning ok starts checkpoint id: a barrier is
	// broadcast covering exactly the first offset tuples. Returning an
	// error aborts the run (fault injection uses this as the
	// "crash before barrier" point).
	Trigger func(offset int64) (id uint64, ok bool, err error)
	// Snapshot is called by each windowed worker when barrier id
	// arrives. An error aborts the run.
	Snapshot func(id uint64, worker int, mgr core.Manager) error
}

type statelessStage struct {
	name string
	fn   MapFunc
}

// Topology is a continuous query's execution DAG: spout (running the
// stateless stages as one chain) → windowed stage → sink.
type Topology struct {
	cfg      Config
	spout    Spout
	stages   []statelessStage
	windowed struct {
		name    string
		par     int
		keyBy   tuple.KeyExtractor // nil → shuffle
		factory ManagerFactory
	}
	sink   ResultSink
	fabric Fabric
	// queue bounds each worker's input channel and the result fan-in,
	// counted in batches; full queues block the spout (the engine's
	// back-pressure). It is queueFor(BatchSize): in-package tests lower
	// it to force constant blocking.
	queue int
}

// NewTopology returns an empty topology with cfg (defaults applied).
func NewTopology(cfg Config) *Topology {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = defaultBatchSize
	}
	tp := &Topology{cfg: cfg, queue: queueFor(cfg.BatchSize)}
	tp.fabric = &localFabric{tp: tp}
	return tp
}

// SetSpout sets the input source.
func (tp *Topology) SetSpout(s Spout) *Topology {
	tp.spout = s
	return tp
}

// AddMap appends a stateless stage. Stages run in order as one chain
// inside the spout goroutine (fusedChain). The int argument is ignored:
// it was the stage's parallelism when stages had goroutines of their
// own, and stays only until the benchmark's spe probe stops passing it.
func (tp *Topology) AddMap(name string, _ int, fn MapFunc) *Topology {
	tp.stages = append(tp.stages, statelessStage{name: name, fn: fn})
	return tp
}

// SetWindowed sets the stateful stage. keyBy selects fields partitioning
// into the stage (grouped operations); nil selects shuffle (scalar
// operations, each worker aggregating its shard).
func (tp *Topology) SetWindowed(name string, parallelism int, keyBy tuple.KeyExtractor, factory ManagerFactory) *Topology {
	tp.windowed.name = name
	tp.windowed.par = parallelism
	tp.windowed.keyBy = keyBy
	tp.windowed.factory = factory
	return tp
}

// SetSink sets the result collector.
func (tp *Topology) SetSink(sink ResultSink) *Topology {
	tp.sink = sink
	return tp
}

func (tp *Topology) validate() error {
	if tp.spout == nil {
		return errors.New("spe: topology has no spout")
	}
	if tp.windowed.factory == nil {
		return errors.New("spe: topology has no windowed stage")
	}
	if tp.windowed.par <= 0 {
		return fmt.Errorf("spe: windowed parallelism %d", tp.windowed.par)
	}
	for _, s := range tp.stages {
		if s.fn == nil {
			return fmt.Errorf("spe: stage %q has no function", s.name)
		}
	}
	if tp.sink == nil {
		return errors.New("spe: topology has no sink")
	}
	return nil
}

// errOnce records the first error raised by any worker. The hot path —
// the spout and every windowed loop poll get() once per run — is a
// single atomic load while no error has occurred; the mutex guards only
// the first-error slot and is touched solely by set() and by get()
// after a failure (when performance no longer matters).
type errOnce struct {
	failed atomic.Bool
	mu     sync.Mutex
	err    error
}

func (e *errOnce) set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
		// Publish after the slot is written: a get() that observes the
		// flag always finds the error under the lock.
		e.failed.Store(true)
	}
	e.mu.Unlock()
}

func (e *errOnce) get() error {
	if !e.failed.Load() {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Run executes the topology to completion: the spout is drained, a final
// watermark fires remaining complete windows, and all results reach the
// sink before Run returns. The first worker error aborts processing (the
// pipeline is still drained) and is returned.
func (tp *Topology) Run() error {
	if err := tp.validate(); err != nil {
		return err
	}
	hooks := tp.cfg.Checkpoint
	// Checkpoint recovery replays the source from the snapshot point.
	var offset int64
	if hooks != nil && hooks.StartOffset > 0 {
		sk, ok := tp.spout.(Seeker)
		if !ok {
			return fmt.Errorf("spe: checkpoint recovery from offset %d requires a seekable spout", hooks.StartOffset)
		}
		if err := sk.SeekTo(hooks.StartOffset); err != nil {
			return fmt.Errorf("spe: seek spout: %w", err)
		}
		offset = hooks.StartOffset
	}

	// Channels carry Batch values — a run of tuples or one control; the
	// shared pool recycles runs between the spout and whatever consumes
	// them, so the steady state is allocation-free. The fabric builds,
	// restores and starts the windowed workers wherever they run — one
	// in-process shard unless SetFabric installed another — and the spout
	// is each of its channels' only sender.
	var failed errOnce
	pool := newRunPool(tp.cfg.BatchSize)
	winIn, err := tp.fabric.Open(tp.windowed.par, tp.queue, FabricEnv{
		Recycle: pool.recycle,
		Fail:    failed.set,
		pool:    pool,
		failed:  &failed,
	})
	if err != nil {
		return err
	}
	if len(winIn) != tp.windowed.par {
		return fmt.Errorf("spe: fabric opened %d channels for %d workers", len(winIn), tp.windowed.par)
	}
	ins := tp.cfg.Obs
	var trace *obs.TraceRing
	if ins != nil {
		trace = ins.Trace()
	}

	var wgSpout, wgSink sync.WaitGroup

	// Spout: run the stateless chain, route data into scatter buffers,
	// generate watermarks, broadcast controls behind a full flush.
	wgSpout.Add(1)
	go func() {
		defer wgSpout.Done()
		defer func() {
			for _, c := range winIn {
				close(c)
			}
		}()
		// Source tuple k goes to slot k mod par under Shuffle, so a
		// replay from offset starts at the phase the crashed run had
		// there; a keyed stage hashes with the run's seed, which survives
		// restarts and agrees across processes.
		var part Partitioner
		if tp.windowed.keyBy == nil {
			part = NewShuffleAt(int(offset % int64(len(winIn))))
		} else {
			part = NewSeededFields(tp.windowed.keyBy, tp.cfg.FieldsSeed)
		}
		out := newBatcher(winIn, part, tp.cfg.BatchSize, pool)
		defer out.flushAll() // runs before the channel-close defer above
		var chain *fusedChain
		if len(tp.stages) > 0 {
			chain = newFusedChain(tp.stages, out)
		}
		var gen *watermark.Generator
		if tp.cfg.WatermarkPeriod > 0 {
			gen = watermark.NewGenerator(tp.cfg.WatermarkPeriod, tp.cfg.WatermarkLag)
		}
		seen := false
		// dead is the failure flag, sampled once per run's worth of
		// tuples like every other loop of the engine: after a failure
		// the spout feeds at most one more run before it only drains.
		dead, untilCheck := false, 0
		// srcHW tracks the max event time emitted (the high-water mark
		// the watermark-lag probes measure against). The sentinel start
		// keeps the update a single compare, and the whole bookkeeping
		// lives inside the `ins != nil` branch so an uninstrumented run
		// pays nothing.
		srcHW := int64(math.MinInt64)
		for {
			// Poll for a checkpoint before fetching the next tuple so the
			// barrier covers exactly the first offset tuples of the
			// stream — that offset is what the manifest records and what
			// recovery seeks the spout to.
			if hooks != nil && hooks.Trigger != nil && failed.get() == nil {
				id, start, err := hooks.Trigger(offset)
				if err != nil {
					failed.set(fmt.Errorf("spe: checkpoint trigger: %w", err))
					dead = true
				} else if start {
					// The flush makes the barrier partition each
					// channel exactly at offset, batched or not.
					out.barrier(id)
				}
			}
			t, ok := tp.spout.Next()
			if !ok {
				break
			}
			if untilCheck == 0 {
				dead = failed.get() != nil
				untilCheck = tp.cfg.BatchSize
			}
			untilCheck--
			if dead {
				continue // drain the spout but stop feeding
			}
			seen = true
			if gen != nil {
				if wm, emit := gen.Observe(t.Ts); emit {
					// Everything routed before the watermark must not be
					// overtaken by it.
					out.watermark(wm)
				}
			}
			if chain == nil {
				out.sendTo(out.route(t), t)
			} else {
				chain.push(t)
			}
			offset++
			if ins != nil {
				// One branch per tuple in the common case: progress is
				// published every SourcePublishMask+1 tuples, never per
				// tuple; trace sampling only fires for every nth Ts.
				if t.Ts > srcHW {
					srcHW = t.Ts
				}
				if offset&obs.SourcePublishMask == 0 {
					ins.PublishSource(offset, srcHW)
				}
				if trace != nil && trace.SampleTs(t.Ts) {
					trace.Record(obs.TraceEvent{Kind: obs.TraceIngest, Stage: "spout", Ts: t.Ts})
				}
			}
		}
		if ins != nil && seen {
			ins.PublishSource(offset, srcHW) // final exact progress
		}
		// At end of a bounded stream every tuple has been observed,
		// so a +∞ closing watermark fires every window holding data
		// (the semantics Flink gives bounded inputs). Managers clamp
		// their fire range to windows that received tuples.
		if seen && tp.cfg.WatermarkPeriod > 0 && failed.get() == nil {
			out.watermark(math.MaxInt64)
		}
	}()

	// Sink: fan-in arrives as []SinkItem batches.
	wgSink.Add(1)
	go func() {
		defer wgSink.Done()
		for items := range tp.fabric.Results() {
			for _, item := range items {
				tp.sink(item.Worker, item.Res)
				if trace != nil && trace.SampleWindow(item.Res.Start) {
					trace.Record(obs.TraceEvent{
						Kind: obs.TraceEmit, Stage: "sink", Worker: item.Worker,
						Ts: item.Res.Start, WindowEnd: item.Res.End,
						Mode: item.Res.Mode.String(),
					})
				}
			}
		}
	}()

	wgSpout.Wait()
	wgSink.Wait()
	// The fabric's Results channel has closed (the sink returned); surface
	// any failure it latched: a worker's, a link's or a remote shard's.
	failed.set(tp.fabric.Err())
	return failed.get()
}

package spe

import (
	"fmt"
	"math"

	"spear/internal/core"
	"spear/internal/obs"
)

// winWorkerCfg is everything one windowed worker's loop needs. The
// shard start builds one per worker of its global range, for a local
// run's in-process shard and a remote node's alike, so distributed
// execution is bit-identical by construction.
type winWorkerCfg struct {
	name      string // stage name, for errors and telemetry
	wi        int    // global worker index (seeds, snapshot identity)
	batchSize int
	hooks     *CheckpointHooks
	mgr       core.Manager
	in        chan Batch
	results   chan<- []SinkItem
	pool      *runPool
	failed    *errOnce
	ins       *obs.Instruments
	wobs      *obs.Worker
	trace     *obs.TraceRing
}

// runWinWorker drains one windowed worker's input to completion: each
// run goes straight to the manager's batch entry point and back to the
// run pool, a watermark that advances the worker's cursor fires
// windows, a barrier snapshots, and results are emitted in per-worker
// order. The channel has one sender — the spout, or the link that
// carries the spout's frames — so arrival order is source order, and
// because a batch is ingested the moment it is taken off the channel,
// every control finds all data before it, and nothing after it, in the
// manager. It returns when in closes.
func runWinWorker(c winWorkerCfg) {
	wm := int64(math.MinInt64) // the worker's watermark: a monotone cursor
	var lastBarrier uint64     // barrier ids strictly increase on a sound channel
	mgr := c.mgr
	var sinkBuf []SinkItem
	flushSink := func() {
		if len(sinkBuf) > 0 {
			c.results <- sinkBuf
			sinkBuf = nil
		}
	}
	fail := func(err error) {
		c.failed.set(fmt.Errorf("spe: %s[%d]: %w", c.name, c.wi, err))
	}
	emit := func(rs []core.Result) {
		if c.trace != nil {
			for _, r := range rs {
				if c.trace.SampleWindow(r.Start) {
					c.trace.Record(obs.TraceEvent{
						Kind: obs.TraceFire, Stage: c.name, Worker: c.wi,
						Ts: r.Start, WindowEnd: r.End,
						Mode: r.Mode.String(), Spilled: r.FetchedFromStore,
					})
				}
			}
		}
		for _, r := range rs {
			sinkBuf = append(sinkBuf, SinkItem{Worker: c.wi, Res: r})
		}
		if len(sinkBuf) >= c.batchSize {
			flushSink()
		}
	}
	traceAssign := func(ts int64) {
		if c.trace.SampleTs(ts) {
			c.trace.Record(obs.TraceEvent{
				Kind: obs.TraceAssign, Stage: c.name,
				Worker: c.wi, Ts: ts,
			})
		}
	}
	// ingest drains one data batch through the manager's OnTupleBatch,
	// the one way into every manager, and recycles the run, error or
	// not, and its slab unless the manager now holds rows whose values
	// live there: the manager may not keep the slice past the call.
	ingest := func(b Batch) {
		if c.trace != nil {
			for i := range b.Rows {
				traceAssign(b.Rows[i].Ts)
			}
		}
		rs, err := mgr.OnTupleBatch(b.Rows)
		if core.KeepsRows(mgr) {
			b.Slab = nil
		}
		c.pool.recycle(b)
		if err != nil {
			fail(err)
			return
		}
		emit(rs)
	}
	// watermark fires what a watermark past the cursor completes.
	watermark := func(to int64) {
		if to <= wm {
			return
		}
		wm = to
		if c.wobs != nil {
			// Once per watermark round, never per tuple.
			c.wobs.SetWatermark(wm)
		}
		rs, err := mgr.OnWatermark(wm)
		if err != nil {
			fail(err)
			return
		}
		emit(rs)
	}
	// barrier is the snapshot point of checkpoint id: every run of the
	// first offset source tuples is already in the manager and nothing
	// later is. A worker without hooks has no checkpoint to take part
	// in and lets the barrier pass.
	barrier := func(id uint64) {
		if c.hooks == nil {
			return
		}
		if id <= lastBarrier {
			fail(fmt.Errorf("barrier %d after barrier %d", id, lastBarrier))
			return
		}
		lastBarrier = id
		if c.hooks.Snapshot != nil {
			if err := c.hooks.Snapshot(id, c.wi, mgr); err != nil {
				fail(fmt.Errorf("snapshot %d: %w", id, err))
			}
		}
	}
	for b := range c.in {
		if c.ins != nil {
			if n := b.Len(); n > 0 {
				// One lock-free histogram fold per received run: the
				// tuples it carries, controls not counted.
				c.ins.Batches.Record(n)
			}
		}
		// The failure flag is read once per batch: after a failure the
		// worker recycles what it is sent and goes quiet.
		switch {
		case c.failed.get() != nil:
			c.pool.recycle(b)
		case b.Ctl == Watermark:
			watermark(b.WM)
		case b.Ctl == Barrier:
			barrier(b.Barrier)
		default:
			ingest(b)
		}
		// Results fired by this batch (watermark rounds, count-window
		// closes) ship now rather than pooling until the stream ends:
		// one send per producing batch keeps sink latency bounded by
		// a single input batch instead of the whole run.
		flushSink()
	}
}

package spe

import (
	"fmt"

	"spear/internal/col"
	"spear/internal/core"
	"spear/internal/obs"
	"spear/internal/watermark"
)

// winWorkerCfg is everything one windowed worker's loop needs. Run
// builds one per local worker; StartShard builds them for the global
// worker range a remote node hosts — the loop itself is identical, so
// distributed execution is bit-identical by construction.
type winWorkerCfg struct {
	name      string // stage name, for errors and telemetry
	wi        int    // global worker index (seeds, snapshot identity)
	senders   int    // upstream senders feeding in
	batchSize int
	columnar  bool // feed OnColumnBatch kernels when the manager has them
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
// run pool, watermarks are min-merged, barriers aligned with a
// snapshot at the alignment point, and results emitted in per-worker
// order. Because a batch is ingested the moment it is taken off the
// channel (or released by the aligner), every control finds all data
// before it already in the manager. It returns when in closes.
func runWinWorker(c winWorkerCfg) {
	tracker := watermark.NewTracker(c.senders)
	var al *barrierAligner
	if c.hooks != nil {
		al = newBarrierAligner(c.senders, c.hooks.clock(), c.hooks.AlignStall)
	}
	mgr := c.mgr
	// Columnar lane: when the run is columnar and the manager has
	// OnColumnBatch kernels, each row run is pivoted into one pooled
	// column batch and ingested through them. The batch buffer is
	// worker-owned for the whole run and recycled at exit; the manager
	// only borrows it per call. Otherwise a run goes through
	// core.IngestBatch: the manager's OnTupleBatch, or the per-tuple
	// shim for one that has none. Either way the manager may not keep
	// the slice past the call: it is recycled right after.
	var cm core.ColumnManager
	var cb *col.ColumnBatch
	if c.columnar {
		var hasCol bool
		if cm, hasCol = mgr.(core.ColumnManager); hasCol {
			cb = col.Get()
			defer col.Put(cb)
		}
	}
	// Watermark-driven read-ahead: managers backed by the async
	// spill plane expose PrefetchWatermark; after each watermark
	// round fires its windows, the hook warms the plane's cache
	// with the panes of the windows firing next, so their exact
	// fallbacks (if any) read memory instead of S.
	pf, hasPrefetch := mgr.(core.Prefetcher)
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
	// ingest drains one data batch through the manager and recycles
	// what carried it, error or not. A spout-shipped column batch goes
	// to the columnar kernel as is; a manager without one reads the
	// batch's owned rows.
	ingest := func(b Batch) {
		var rs []core.Result
		var err error
		if b.Cols != nil && cm != nil {
			if c.trace != nil {
				for _, ts := range b.Cols.Ts() {
					traceAssign(ts)
				}
			}
			rs, err = cm.OnColumnBatch(b.Cols)
		} else {
			rows := b.Rows
			if b.Cols != nil {
				rows = b.Cols.Rows()
			}
			if c.trace != nil {
				for i := range rows {
					traceAssign(rows[i].Ts)
				}
			}
			if cb != nil {
				cb.SetRows(rows)
				rs, err = cm.OnColumnBatch(cb)
			} else {
				rs, err = core.IngestBatch(mgr, rows)
			}
		}
		c.pool.recycle(b)
		if err != nil {
			fail(err)
			return
		}
		emit(rs)
	}
	// process acts on one batch in arrival order. The failure flag is
	// read once per batch: after a failure the worker recycles what it
	// is sent and goes quiet.
	process := func(b Batch) {
		if c.failed.get() != nil {
			c.pool.recycle(b)
			return
		}
		if b.Ctl != Watermark {
			ingest(b)
			return
		}
		if wm, adv := tracker.Update(b.Sender, b.WM); adv {
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
			if hasPrefetch {
				pf.PrefetchWatermark(wm)
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
		if b.Ctl == Barrier && c.hooks != nil && c.hooks.BarrierSeen != nil {
			if err := c.hooks.BarrierSeen(b.Barrier, c.wi, b.Sender); err != nil {
				fail(err)
			}
		}
		if al == nil || (!al.Aligning() && b.Ctl != Barrier) {
			process(b)
		} else if events, err := al.Observe(b); err != nil {
			fail(err)
		} else {
			for _, ev := range events {
				if !ev.snapshot {
					process(ev.b)
					continue
				}
				// Every pre-barrier run is already in the manager.
				if c.failed.get() == nil && c.hooks.Snapshot != nil {
					if err := c.hooks.Snapshot(ev.id, c.wi, mgr); err != nil {
						c.failed.set(fmt.Errorf("spe: snapshot %d at %s[%d]: %w", ev.id, c.name, c.wi, err))
					}
				}
			}
		}
		// Results fired by this batch (watermark rounds, count-window
		// closes) ship now rather than pooling until the stream ends:
		// one send per producing batch keeps sink latency bounded by
		// a single input batch instead of the whole run.
		flushSink()
	}
}

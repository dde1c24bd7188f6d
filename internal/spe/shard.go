package spe

import (
	"fmt"
	"sync"

	"spear/internal/core"
	"spear/internal/obs"
	"spear/internal/tuple"
)

// Shard describes the slice of a topology's windowed stage that one
// shard executes: global workers [Lo, Hi) of the stage, each fed by
// the source's one sender. A local run is one shard over [0, par); a
// shard node hosts its range of a distributed run. The factory and
// hooks are invoked with global worker indices, so per-worker seeds,
// spill keys, and snapshot identities are the same wherever a worker
// runs.
type Shard struct {
	Name      string
	Lo, Hi    int // global windowed worker range [Lo, Hi)
	BatchSize int // the source topology's; StartShard sizes its runs and channels from it
	Factory   ManagerFactory
	// Hooks carries the worker-side checkpoint protocol: Restore runs
	// per worker before the loops start; Snapshot runs at each barrier.
	// nil disables barrier handling — only valid when the source never
	// checkpoints.
	Hooks *CheckpointHooks
	// Obs, when non-nil, gains the shard's edge and sink probes, its
	// workers' bundles and, while tracing is on, their assign and fire
	// events.
	Obs *obs.Instruments
}

// ShardRun is a live shard: its feeder (the spout, or the transport's
// decoder) sends batches into In (one channel per worker, In[i] serving
// global worker Lo+i) and drains Results until it closes. Close every
// In channel at stream end; Wait reports the first worker error after
// all loops finish.
type ShardRun struct {
	In      []chan Batch
	Results chan []SinkItem

	pool   *runPool
	failed *errOnce
	wg     sync.WaitGroup
}

// StartShard validates sh, builds and restores the shard's managers,
// and starts one worker goroutine per global worker in [Lo, Hi). A
// shard started here is fed by a network fabric, whose batch frames
// carry up to the runs a source outbox holds: queueFor(BatchSize) runs
// of BatchSize. Its pool's runs have room for that many tuples, so a
// frame decodes into one without allocating, and its inputs hold
// queueFor of that run length: in tuples, about twice what a local
// channel holds. Its result fan-in holds queueFor(BatchSize) batches,
// as a local shard's does.
func StartShard(sh Shard) (*ShardRun, error) {
	if sh.BatchSize <= 0 {
		sh.BatchSize = defaultBatchSize
	}
	run := queueFor(sh.BatchSize) * sh.BatchSize
	return startShard(sh, queueFor(run), queueFor(sh.BatchSize), newRunPool(run), new(errOnce))
}

// startShard is StartShard over given capacities in batches of the
// input channels and the result fan-in, run pool and error slot. This
// is the one place a windowed worker is built, restored and started.
func startShard(sh Shard, queue, results int, pool *runPool, failed *errOnce) (*ShardRun, error) {
	if sh.Lo < 0 || sh.Hi <= sh.Lo {
		return nil, fmt.Errorf("spe: shard range [%d, %d)", sh.Lo, sh.Hi)
	}
	if sh.Factory == nil {
		return nil, fmt.Errorf("spe: shard has no factory")
	}
	n := sh.Hi - sh.Lo
	// Build and restore every manager before starting any goroutine: a
	// factory or restore failure leaks nothing.
	managers := make([]core.Manager, n)
	for i := range managers {
		mgr, err := sh.Factory(sh.Lo + i)
		if err != nil {
			return nil, fmt.Errorf("spe: windowed worker %d: %w", sh.Lo+i, err)
		}
		managers[i] = mgr
	}
	if sh.Hooks != nil && sh.Hooks.Restore != nil {
		for i, mgr := range managers {
			if err := sh.Hooks.Restore(sh.Lo+i, mgr); err != nil {
				return nil, fmt.Errorf("spe: restore worker %d: %w", sh.Lo+i, err)
			}
		}
	}

	sr := &ShardRun{
		In:      make([]chan Batch, n),
		Results: make(chan []SinkItem, results),
		pool:    pool,
		failed:  failed,
	}
	for i := range sr.In {
		sr.In[i] = make(chan Batch, queue)
	}
	// Live observability: pull probes over every channel the shard owns.
	// A probe is a closure over len(chan) — the engine pays nothing for
	// it; scrapers pay one atomic load per read.
	ins := sh.Obs
	var trace *obs.TraceRing
	if ins != nil {
		trace = ins.Trace()
		for i, c := range sr.In {
			c := c
			ins.RegisterEdge(fmt.Sprintf("%s[%d]", sh.Name, sh.Lo+i), queue, func() int { return len(c) })
		}
		res := sr.Results
		ins.RegisterSink(results, func() int { return len(res) })
	}
	for i, mgr := range managers {
		var wobs *obs.Worker
		if ins != nil {
			wobs = ins.Worker(fmt.Sprintf("%s[%d]", sh.Name, sh.Lo+i))
		}
		sr.wg.Add(1)
		go func(i int, mgr core.Manager, wobs *obs.Worker) {
			defer sr.wg.Done()
			runWinWorker(winWorkerCfg{
				name:      sh.Name,
				wi:        sh.Lo + i,
				batchSize: sh.BatchSize,
				hooks:     sh.Hooks,
				mgr:       mgr,
				in:        sr.In[i],
				results:   sr.Results,
				pool:      pool,
				failed:    failed,
				ins:       ins,
				wobs:      wobs,
				trace:     trace,
			})
		}(i, mgr, wobs)
	}
	// Close the result fan-in once every worker loop has drained, so
	// whoever drains it — the sink, or the transport's result pump —
	// terminates.
	go func() {
		sr.wg.Wait()
		close(sr.Results)
	}()
	return sr, nil
}

// NewRun returns an empty recycled run and a recycled value slab (nil
// when the pool has none) for the transport's decoder to fill and push
// into an In channel as a Batch's Rows and Slab.
func (sr *ShardRun) NewRun() ([]tuple.Tuple, []tuple.Value) {
	return sr.pool.get(), sr.pool.slabs.get()
}

// Fail latches err into the run (a transport failure); worker loops go
// quiet and Wait reports it. The caller must still close the In
// channels to unwind the loops.
func (sr *ShardRun) Fail(err error) { sr.failed.set(err) }

// Wait blocks until every worker loop has finished (all In channels
// closed and drained) and returns the first error.
func (sr *ShardRun) Wait() error {
	sr.wg.Wait()
	return sr.failed.get()
}

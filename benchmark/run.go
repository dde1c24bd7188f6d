package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"spear"
	"spear/benchmark/layers/probe"
	"spear/benchmark/loadgen"
	"spear/benchmark/span"
)

// prepared is a workload's set-up: its input block and the reference
// answers over it.
type prepared struct {
	w     *workload
	seed  int64
	block *loadgen.Block
	shape loadgen.Shape
	ref   *reference
}

// prepare is the set-up phase: generate the input, build the reference,
// build the query.
func (w *workload) prepare(seed int64, scale float64) (*prepared, error) {
	block, sh, err := loadgen.Input(w.name, seed, scale)
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, seed: seed, block: block, shape: sh, ref: newReference(block, w.refSpec(sh))}
	_ = w.newQuery(queryEnv{src: loadgen.NewReplay(block, 1, 0), seed: seed, sh: sh, store: probe.NewStore(0, 0, nil, nil)})
	return p, nil
}

// cycles is how many whole replays of the block make up tuples tuples.
func (p *prepared) cycles(tuples float64) int {
	return max(1, int(math.Round(tuples/float64(len(p.block.Tuples)))))
}

// runOpts selects what kind of run one pass over the input is.
type runOpts struct {
	cycles      int
	rate        float64        // 0 = saturated (closed loop), else open loop at rate tuples/s
	procs       int            // GOMAXPROCS for this pass; 0 = leave the process's setting
	rec         *span.Recorder // traced run
	instruments bool           // attach live instruments and keep their last snapshot
	flipTCP     bool           // run in-process what the workload runs over TCP, and vice versa
}

// runResult is everything one pass produced.
type runResult struct {
	tuples int64
	wall   time.Duration
	// The live heap when the pass began (input block and reference
	// included) and its peak during the pass, bytes.
	heapBase, heapPeak int64
	expected           int
	failed             int
	chk                *checker
	src                *loadgen.Replay
	store              *probe.Store
	// Instrumented runs: the final obs snapshots via their JSON form —
	// the source's first, then one per shard server — and the time the
	// source's took.
	snapshots []map[string]any
	snapUs    float64
	// The process's CPU time at every mark of the source (src.Marks).
	cpuMarks []time.Duration
}

func (r *runResult) tuplesPerSec() float64 { return float64(r.tuples) / r.wall.Seconds() }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeap() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// watchHeap samples the live heap every 50 ms until stop is closed and
// sends the peak on the returned channel.
func watchHeap(stop <-chan struct{}) <-chan int64 {
	out := make(chan int64, 1)
	go func() {
		peak := liveHeap()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- max(peak, liveHeap())
				return
			case <-tick.C:
				peak = max(peak, liveHeap())
			}
		}
	}()
	return out
}

// run makes one pass of the workload's query over the input and checks
// every window it produces.
func (p *prepared) run(o runOpts) (*runResult, error) {
	w := p.w
	if o.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(o.procs))
	}
	res := &runResult{
		src: loadgen.NewReplay(p.block, o.cycles, o.rate),
		chk: newChecker(p.ref, o.cycles, w.valueEvery),
	}
	res.tuples = res.src.Total()

	// The source block in flight is the parent of whatever the engine
	// does next on the harness's side: store calls, stage blocks, sink.
	var parent atomic.Int64
	res.store = probe.NewStore(w.storePerOp, w.storePerKB, o.rec, &parent)
	var open span.Open // the source block in flight
	res.src.OnMark(func() { res.cpuMarks = append(res.cpuMarks, cpuTime()) })
	if o.rec != nil {
		res.src.OnTick(func(int64) {
			open.End()
			open = o.rec.Begin("source.next", 0, -1)
			parent.Store(open.ID())
		})
	}

	env := queryEnv{src: res.src, seed: p.seed, sh: p.shape, store: res.store, rec: o.rec}
	var instruments []*spear.Instruments
	observe := func() *spear.Instruments {
		if !o.instruments {
			return nil
		}
		instruments = append(instruments, spear.NewInstruments())
		return instruments[len(instruments)-1]
	}
	env.ins = observe()

	// Shard servers, when the windowed stage runs behind TCP: each
	// serves its share of the workers on a loopback listener in this
	// process, so the wire, the codec and the credit protocol are the
	// multi-process path with only the process boundary elided.
	var listeners []net.Listener
	shardErr := make(chan error, w.par) // one send per shard server
	if w.tcp != o.flipTCP {
		for i := 0; i < w.par; i++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, l := range listeners {
					l.Close() // its server then returns; nothing waits for it
				}
				return nil, fmt.Errorf("%s: shard listener: %w", w.name, err)
			}
			listeners = append(listeners, lis)
			env.addrs = append(env.addrs, lis.Addr().String())
			shard := w.newQuery(queryEnv{seed: p.seed, sh: p.shape, store: res.store, ins: observe()})
			//lint:ignore goroutine-discipline joined below: run receives exactly one error per shard server from shardErr before returning
			go func() { shardErr <- shard.ServeShard(lis) }()
		}
	}

	q := w.newQuery(env)
	sink := func(worker int, r spear.Result) {
		at := time.Now()
		sp := o.rec.Begin("sink.result", parent.Load(), worker)
		res.chk.observe(worker, r, at)
		sp.End()
	}

	runtime.GC()
	base := liveHeap()
	stop := make(chan struct{})
	peak := watchHeap(stop)
	t0 := time.Now()
	_, err := q.Run(sink)
	res.wall = time.Since(t0)
	open.End()
	close(stop)
	res.heapBase, res.heapPeak = base, <-peak

	// A shard server returns once the run it served has completed; one
	// the source never reached is still accepting and has to be told.
	if err != nil {
		for _, lis := range listeners {
			lis.Close()
		}
	}
	for range listeners {
		if serr := <-shardErr; serr != nil && err == nil {
			err = fmt.Errorf("shard server: %w", serr)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for i, ins := range instruments {
		t0 := time.Now()
		snap := ins.Snapshot(t0)
		if i == 0 {
			res.snapUs = float64(time.Since(t0)) / 1e3
		}
		// Read through JSON, by field name: a renamed or removed field
		// then costs one metric, not the benchmark's build.
		var fields map[string]any
		if blob, err := json.Marshal(snap); err == nil {
			_ = json.Unmarshal(blob, &fields)
		}
		res.snapshots = append(res.snapshots, fields)
	}
	res.expected, res.failed = res.chk.finish()
	return res, nil
}

// quantile is the q-quantile of xs by nearest rank; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[min(int(q*float64(len(xs))), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Package obs is the engine's one telemetry system, in the role Storm's
// metrics API has in the paper's evaluation ("periodic reporting of
// runtime telemetry for each worker thread"): the per-worker counters,
// gauges and processing-time histograms the figures plot, plus the
// dataflow state the batched engine added — per-edge queue depth,
// micro-batch occupancy, watermark lag, spill and checkpoint traffic —
// readable as a Summary at stream end and observable *while* the query
// runs.
//
// The design splits into two layers:
//
//   - Instruments: the run's registry — one Worker bundle per window
//     worker, the checkpoint bundle, atomic-only counters/gauges, and
//     zero-cost pull probes (closures over channel lengths) the engine
//     registers at topology start. Nothing here takes a lock on a
//     per-tuple path. Snapshot folds every instrument into an immutable
//     Snapshot on demand; readers never block writers.
//   - Serve: an opt-in HTTP endpoint over an Instruments, serving the
//     Prometheus text exposition format at /metrics, a JSON snapshot at
//     /snapshot, and the tuple-lifecycle trace ring at /trace.
package obs

import (
	"sync"
	"sync/atomic"
)

// occBuckets are the micro-batch occupancy histogram's upper bounds
// (tuples per run); a final implicit +Inf bucket catches anything
// larger. Powers of two up to 1024 bracket the runs a local worker gets
// (at most BatchSize) and those a shard node decodes, which carry every
// run the source's outbox held: up to about 1 K tuples.
var occBuckets = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Edge is one inter-worker channel: a name, its capacity (in batches),
// and a pull probe reading the instantaneous queue depth. The probe is
// a closure over len(chan) — reading it costs the reader one atomic
// load and the sender nothing at all.
type Edge struct {
	Name     string
	Capacity int
	Depth    func() int
}

// BatchOccupancy is a lock-free histogram of tuples per data batch,
// updated once per received run.
type BatchOccupancy struct {
	counts [12]atomic.Int64 // occBuckets + the +Inf bucket
	sum    atomic.Int64     // total tuples
	n      atomic.Int64     // total batches
}

// Record folds one batch's length in.
func (b *BatchOccupancy) Record(size int) {
	i := 0
	for i < len(occBuckets) && size > occBuckets[i] {
		i++
	}
	b.counts[i].Add(1)
	b.sum.Add(int64(size))
	b.n.Add(1)
}

// Instruments is a run's telemetry registry: the worker bundles its
// Summary is computed from and the probes the engine wires in. All
// registration methods are safe to call while a reader (the
// controller's tick, an HTTP scrape) is concurrently snapshotting (the
// engine registers edges and workers as Topology.Run builds the DAG,
// which may overlap the first scrape).
type Instruments struct {
	mu         sync.Mutex
	edges      []Edge
	workers    []*Worker
	sink       *Edge
	transports []*TransportObs

	plane   spillPlane
	ckpt    *CheckpointMetrics
	trace   *TraceRing
	control ControlSource

	// Source progress, published by the spout every sourcePublishMask+1
	// tuples (and at stream end) to keep the hot loop at one branch per
	// tuple in the common case.
	sourceTuples    atomic.Int64
	sourceHighWater atomic.Int64
	sourceSeen      atomic.Bool

	// Batches is the engine-wide micro-batch occupancy histogram,
	// recorded at the windowed workers' receive loops.
	Batches BatchOccupancy
}

// SourcePublishMask makes the spout publish its progress every 64
// tuples: `offset&SourcePublishMask == 0` is the hot-loop gate.
const SourcePublishMask = 63

// NewInstruments returns an empty instrument registry.
func NewInstruments() *Instruments { return &Instruments{} }

// ControlSource is implemented by the adaptive accuracy controller
// (internal/control); obs declares the interface so the dependency
// points control→obs, never back.
type ControlSource interface {
	ControlSnapshot() *ControlSnapshot
}

// SetController attaches the adaptive accuracy controller so snapshots
// include its budget trajectory and decision counters.
func (in *Instruments) SetController(c ControlSource) {
	in.mu.Lock()
	in.control = c
	in.mu.Unlock()
}

// Checkpoint returns the run's fault-tolerance bundle, creating it on
// first use; snapshots carry a checkpoint section from then on.
func (in *Instruments) Checkpoint() *CheckpointMetrics {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.ckpt == nil {
		in.ckpt = &CheckpointMetrics{}
	}
	return in.ckpt
}

// EnableTrace installs a trace ring sampling every nth tuple/window,
// keeping the most recent cap events. n < 1 selects 1 (trace
// everything); cap < 1 selects DefaultTraceCap.
func (in *Instruments) EnableTrace(n, cap int) *TraceRing {
	tr := NewTraceRing(n, cap)
	in.mu.Lock()
	in.trace = tr
	in.mu.Unlock()
	return tr
}

// Trace returns the installed trace ring, nil when tracing is off.
func (in *Instruments) Trace() *TraceRing {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.trace
}

// RegisterEdge adds one inter-worker channel probe.
func (in *Instruments) RegisterEdge(name string, capacity int, depth func() int) {
	in.mu.Lock()
	in.edges = append(in.edges, Edge{Name: name, Capacity: capacity, Depth: depth})
	in.mu.Unlock()
}

// RegisterSink sets the result fan-in channel probe.
func (in *Instruments) RegisterSink(capacity int, depth func() int) {
	in.mu.Lock()
	in.sink = &Edge{Name: "sink", Capacity: capacity, Depth: depth}
	in.mu.Unlock()
}

// Worker returns the bundle of the window worker called name, creating
// and registering it on first use: the manager factory and the engine's
// worker loop both ask by name and share the one bundle.
func (in *Instruments) Worker(name string) *Worker {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, w := range in.workers {
		if w.Name == name {
			return w
		}
	}
	w := &Worker{Name: name}
	in.workers = append(in.workers, w)
	return w
}

// PublishSource records the spout's progress: tuples emitted so far and
// the maximum event time observed (the source high-water mark the
// watermark-lag families measure against). Called every
// SourcePublishMask+1 tuples and at stream end — never per tuple.
func (in *Instruments) PublishSource(tuples, highWater int64) {
	in.sourceTuples.Store(tuples)
	in.sourceHighWater.Store(highWater)
	in.sourceSeen.Store(true)
}

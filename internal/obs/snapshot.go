package obs

import (
	"fmt"
	"io"
	"strings"
	"time"

	"spear/internal/spill"
	"spear/internal/storage"
)

// The storage and spill types are aliased so only this file — the one
// actually reading spill telemetry — imports the two packages. The
// errcheck-lite check scopes its spill-call heuristic by file
// imports; the atomic .Store calls elsewhere in this package are not
// storage operations and must stay out of its scope.
type (
	spillStats = storage.Stats
	spillPlane = *spill.Plane
	planeStats = spill.Stats
)

// SetSpillPlane attaches the run's spill I/O plane so snapshots include
// the traffic of the store under it and the plane's own queue, cache
// and prefetch telemetry. Safe to call while a reader is concurrently
// snapshotting.
func (in *Instruments) SetSpillPlane(p spillPlane) {
	in.mu.Lock()
	in.plane = p
	in.mu.Unlock()
}

// EdgeSnapshot is one channel's state at snapshot time.
type EdgeSnapshot struct {
	Name     string  `json:"name"`
	Depth    int     `json:"depth"`
	Capacity int     `json:"capacity"`
	Fill     float64 `json:"fill"` // depth/capacity, back-pressure at 1.0
}

// WorkerWatermark is one windowed worker's event-time progress.
type WorkerWatermark struct {
	Name      string `json:"name"`
	Watermark int64  `json:"watermark"`
	// LagNanos is the event-time distance behind the source high-water
	// mark; meaningful only when both Valid flags below are set.
	LagNanos int64 `json:"lag_nanos"`
	Valid    bool  `json:"valid"`
}

// OccBucket is one cumulative batch-occupancy bucket (Prometheus
// histogram semantics: count of batches with ≤ Le messages).
type OccBucket struct {
	Le         int   `json:"le"` // -1 encodes +Inf
	Cumulative int64 `json:"cumulative"`
}

// OccupancySnapshot is the micro-batch occupancy histogram.
type OccupancySnapshot struct {
	Buckets []OccBucket `json:"buckets"`
	Count   int64       `json:"count"` // batches
	Sum     int64       `json:"sum"`   // messages
}

// WorkerMetricsSnapshot is one window worker's bundle at snapshot time.
type WorkerMetricsSnapshot struct {
	Name                string  `json:"name"`
	TuplesIn            int64   `json:"tuples_in"`
	WindowsTotal        int64   `json:"windows_total"`
	WindowsAccelerated  int64   `json:"windows_accelerated"`
	WindowsExact        int64   `json:"windows_exact"`
	WindowsSpilled      int64   `json:"windows_spilled"`
	WindowsShed         int64   `json:"windows_shed"`
	LateDropped         int64   `json:"late_dropped"`
	EstimationFailures  int64   `json:"estimation_failures"`
	TuplesProcessedFull int64   `json:"tuples_processed_full"`
	TuplesShed          int64   `json:"tuples_shed"`
	BudgetTuples        int64   `json:"budget_tuples"`
	MemBytes            int64   `json:"mem_bytes"`
	MemBytesPeak        int64   `json:"mem_bytes_peak"`
	ProcTimeCount       int64   `json:"proc_time_count"`
	ProcTimeMeanNanos   float64 `json:"proc_time_mean_nanos"`
	ProcTimeP95Nanos    float64 `json:"proc_time_p95_nanos"`
}

// ControlSnapshot is the adaptive accuracy controller's state at
// snapshot time: the SLO, the published budget target, the signals it
// last acted on, and cumulative decision counts.
type ControlSnapshot struct {
	SLONanos     int64   `json:"slo_nanos"`
	TargetBudget int     `json:"target_budget"`
	MinBudget    int     `json:"min_budget"`
	MaxBudget    int     `json:"max_budget"`
	Shedding     bool    `json:"shedding"`
	LagNanos     int64   `json:"lag_nanos"`
	QueueFill    float64 `json:"queue_fill"`
	SourceRate   float64 `json:"source_rate"`
	ShedRate     float64 `json:"shed_rate"`
	Tighten      int64   `json:"tighten"`
	Expand       int64   `json:"expand"`
	ShedOn       int64   `json:"shed_on"`
	ShedOff      int64   `json:"shed_off"`
	Hold         int64   `json:"hold"`
}

// CheckpointSnapshot is the fault-tolerance telemetry at snapshot time.
type CheckpointSnapshot struct {
	Completed         int64   `json:"completed"`
	Failed            int64   `json:"failed"`
	SnapshotBytes     int64   `json:"snapshot_bytes"`
	LastBytes         int64   `json:"last_bytes"`
	RecoveryNanos     int64   `json:"recovery_nanos"`
	SnapshotMeanNanos float64 `json:"snapshot_mean_nanos"`
}

// Snapshot is one immutable picture of the running query, folded on
// demand by Instruments.Snapshot; the HTTP endpoints render them.
type Snapshot struct {
	At              time.Time `json:"at"`
	SourceTuples    int64     `json:"source_tuples"`
	SourceHighWater int64     `json:"source_high_water"`
	SourceSeen      bool      `json:"source_seen"`

	Edges     []EdgeSnapshot    `json:"edges"`
	Sink      *EdgeSnapshot     `json:"sink,omitempty"`
	Workers   []WorkerWatermark `json:"workers"`
	Occupancy OccupancySnapshot `json:"occupancy"`

	WorkerMetrics []WorkerMetricsSnapshot `json:"worker_metrics,omitempty"`

	Storage *storage.Stats `json:"storage,omitempty"`

	// SpillPlane is the async spill I/O plane's queue/cache/prefetch
	// telemetry; nil when no plane is attached.
	SpillPlane *planeStats `json:"spill_plane,omitempty"`

	Checkpoint *CheckpointSnapshot `json:"checkpoint,omitempty"`

	// Transport holds per-peer network-shuffle counters; empty for
	// single-process runs.
	Transport []TransportSnapshot `json:"transport,omitempty"`

	// Control is the adaptive accuracy controller's state; nil when no
	// controller is attached (no LatencySLO configured).
	Control *ControlSnapshot `json:"control,omitempty"`

	TraceRecorded uint64 `json:"trace_recorded,omitempty"`
}

// Snapshot folds every instrument into an immutable Snapshot. It is
// safe to call concurrently with engine writers: every value read is an
// atomic load or a probe over a channel length.
func (in *Instruments) Snapshot(now time.Time) *Snapshot {
	in.mu.Lock()
	edges := append([]Edge(nil), in.edges...)
	workers := append([]*Worker(nil), in.workers...)
	transports := append([]*TransportObs(nil), in.transports...)
	sink, plane, ckpt, trace, control := in.sink, in.plane, in.ckpt, in.trace, in.control
	in.mu.Unlock()

	s := &Snapshot{
		At:              now,
		SourceTuples:    in.sourceTuples.Load(),
		SourceHighWater: in.sourceHighWater.Load(),
		SourceSeen:      in.sourceSeen.Load(),
	}

	s.Edges = make([]EdgeSnapshot, len(edges))
	for i, e := range edges {
		s.Edges[i] = edgeSnapshot(e)
	}
	if sink != nil {
		es := edgeSnapshot(*sink)
		s.Sink = &es
	}

	s.Workers = make([]WorkerWatermark, len(workers))
	for i, w := range workers {
		ws := WorkerWatermark{Name: w.Name}
		if w.hasWM.Load() {
			ws.Watermark = w.watermark.Load()
			if s.SourceSeen {
				ws.LagNanos = s.SourceHighWater - ws.Watermark
				if ws.LagNanos < 0 {
					ws.LagNanos = 0 // final watermark can outrun the HW mark
				}
				ws.Valid = true
			}
		}
		s.Workers[i] = ws
		s.WorkerMetrics = append(s.WorkerMetrics, WorkerMetricsSnapshot{
			Name:                w.Name,
			TuplesIn:            w.TuplesIn.Load(),
			WindowsTotal:        w.WindowsTotal.Load(),
			WindowsAccelerated:  w.WindowsAccelerated.Load(),
			WindowsExact:        w.WindowsExact.Load(),
			WindowsSpilled:      w.WindowsSpilled.Load(),
			WindowsShed:         w.WindowsShed.Load(),
			LateDropped:         w.LateDropped.Load(),
			EstimationFailures:  w.EstimationFailures.Load(),
			TuplesProcessedFull: w.TuplesProcessedFull.Load(),
			TuplesShed:          w.TuplesShed.Load(),
			BudgetTuples:        w.BudgetTuples.Load(),
			MemBytes:            w.MemBytes.Load(),
			MemBytesPeak:        w.MemBytes.Peak(),
			ProcTimeCount:       int64(w.ProcTime.Count()),
			ProcTimeMeanNanos:   w.ProcTime.Mean(),
			ProcTimeP95Nanos:    w.ProcTime.Percentile(0.95),
		})
	}

	var cum int64
	s.Occupancy.Buckets = make([]OccBucket, len(occBuckets)+1)
	for i := range in.Batches.counts {
		cum += in.Batches.counts[i].Load()
		le := -1
		if i < len(occBuckets) {
			le = occBuckets[i]
		}
		s.Occupancy.Buckets[i] = OccBucket{Le: le, Cumulative: cum}
	}
	s.Occupancy.Count = in.Batches.n.Load()
	s.Occupancy.Sum = in.Batches.sum.Load()

	if plane != nil {
		st, ps := plane.Stats(), plane.PlaneStats()
		s.Storage, s.SpillPlane = &st, &ps
	}
	if ckpt != nil {
		s.Checkpoint = &CheckpointSnapshot{
			Completed:         ckpt.Completed.Load(),
			Failed:            ckpt.Failed.Load(),
			SnapshotBytes:     ckpt.SnapshotBytes.Load(),
			LastBytes:         ckpt.LastBytes.Load(),
			RecoveryNanos:     ckpt.RecoveryTime.Load(),
			SnapshotMeanNanos: ckpt.SnapshotTime.Mean(),
		}
	}
	for _, t := range transports {
		s.Transport = append(s.Transport, transportSnapshot(t))
	}
	if control != nil {
		s.Control = control.ControlSnapshot()
	}
	if trace != nil {
		s.TraceRecorded = trace.Recorded()
	}
	return s
}

func edgeSnapshot(e Edge) EdgeSnapshot {
	d := 0
	if e.Depth != nil {
		d = e.Depth()
	}
	es := EdgeSnapshot{Name: e.Name, Depth: d, Capacity: e.Capacity}
	if e.Capacity > 0 {
		es.Fill = float64(d) / float64(e.Capacity)
	}
	return es
}

// sample is one exposition line of a family: an optional series-name
// suffix (the histogram's _bucket/_sum/_count), the labels beyond the
// item's own, and the value (an integer or a float64).
type sample struct {
	suffix, labels string
	v              any
}

// val is the common case: one sample with no label of its own.
func val(v any) []sample { return []sample{{v: v}} }

// secs converts nanoseconds to the exposition's seconds.
func secs[N int64 | float64](ns N) float64 { return float64(ns) / 1e9 }

// label renders one label pair, escaping the value.
func label(k, v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return k + `="` + v + `"`
}

// bit is 1 for true: the item count of a section that is there once or
// absent, and the value of a yes/no gauge.
func bit(ok bool) int {
	if ok {
		return 1
	}
	return 0
}

// family declares one metric family, once: its exposition name, type
// and help, and how to read its samples for item i of its group.
type family struct {
	name, typ, help string
	read            func(s *Snapshot, i int) []sample
}

// group is a run of families over the same n items of a Snapshot — its
// workers, its peers, or one section that is there or not — each item
// carrying the label own gives it (nil: none).
type group struct {
	n    func(*Snapshot) int
	own  func(s *Snapshot, i int) string
	fams []family
}

func once(*Snapshot) int { return 1 }

// families is every metric family the engine serves, each declared in
// this one place: WritePrometheus renders it and Families (what
// spear-demo -scrapecheck requires of a live scrape) lists it. A new
// metric is a field of its bundle, a field of its snapshot struct, and
// a line here.
var families = []group{
	{once, nil, []family{
		{"spear_source_tuples_total", "counter", "Tuples emitted by the source spout.", func(s *Snapshot, _ int) []sample { return val(s.SourceTuples) }},
	}},
	{once, nil, []family{
		{"spear_source_highwater_timestamp_seconds", "gauge", "Maximum event time observed at the source, seconds.", func(s *Snapshot, _ int) []sample { return val(secs(s.SourceHighWater)) }},
	}},
	{func(s *Snapshot) int { return len(s.Edges) }, edgeLabel, []family{
		{"spear_edge_queue_depth", "gauge", "Instantaneous queue depth (batches) of one inter-worker channel.", func(s *Snapshot, i int) []sample { return val(s.Edges[i].Depth) }},
	}},
	{func(s *Snapshot) int { return len(s.Edges) }, edgeLabel, []family{
		{"spear_edge_queue_capacity", "gauge", "Capacity (batches) of one inter-worker channel.", func(s *Snapshot, i int) []sample { return val(s.Edges[i].Capacity) }},
	}},
	{func(s *Snapshot) int { return bit(s.Sink != nil) }, nil, []family{
		{"spear_sink_queue_depth", "gauge", "Instantaneous depth of the result fan-in channel.", func(s *Snapshot, _ int) []sample { return val(s.Sink.Depth) }},
		{"spear_sink_queue_capacity", "gauge", "Capacity of the result fan-in channel.", func(s *Snapshot, _ int) []sample { return val(s.Sink.Capacity) }},
	}},
	{func(s *Snapshot) int { return len(s.Workers) }, func(s *Snapshot, i int) string { return label("worker", s.Workers[i].Name) }, []family{
		{"spear_worker_watermark_timestamp_seconds", "gauge", "Last merged watermark per windowed worker, seconds of event time.", func(s *Snapshot, i int) []sample { return validWM(s.Workers[i], s.Workers[i].Watermark) }},
		{"spear_worker_watermark_lag_seconds", "gauge", "Event-time lag of each windowed worker behind the source high-water mark.", func(s *Snapshot, i int) []sample { return validWM(s.Workers[i], s.Workers[i].LagNanos) }},
	}},
	{once, nil, []family{
		{"spear_batch_occupancy", "histogram", "Tuples per received data batch at the windowed workers.", func(s *Snapshot, _ int) (out []sample) {
			for _, b := range s.Occupancy.Buckets {
				le := "+Inf"
				if b.Le >= 0 {
					le = fmt.Sprint(b.Le)
				}
				out = append(out, sample{"_bucket", label("le", le), b.Cumulative})
			}
			return append(out, sample{"_sum", "", s.Occupancy.Sum}, sample{"_count", "", s.Occupancy.Count})
		}},
	}},
	{func(s *Snapshot) int { return len(s.WorkerMetrics) }, func(s *Snapshot, i int) string { return label("worker", s.WorkerMetrics[i].Name) }, []family{
		{"spear_worker_tuples_total", "counter", "Tuples ingested per stateful worker.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].TuplesIn) }},
		{"spear_worker_windows_total", "counter", "Windows fired per stateful worker.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].WindowsTotal) }},
		{"spear_worker_windows_accelerated_total", "counter", "Windows answered from the sample per stateful worker.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].WindowsAccelerated) }},
		{"spear_worker_windows_exact_total", "counter", "Windows processed in full per stateful worker.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].WindowsExact) }},
		{"spear_worker_windows_spilled_total", "counter", "Windows that touched secondary storage per stateful worker.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].WindowsSpilled) }},
		{"spear_worker_windows_shed_total", "counter", "Windows answered sample-only because load shedding dropped their archive.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].WindowsShed) }},
		{"spear_worker_late_dropped_total", "counter", "Late tuples dropped per stateful worker.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].LateDropped) }},
		{"spear_worker_estimation_failures_total", "counter", "Accuracy checks that rejected acceleration per stateful worker.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].EstimationFailures) }},
		{"spear_worker_tuples_processed_full_total", "counter", "Tuples scanned by exact processing per stateful worker.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].TuplesProcessedFull) }},
		{"spear_worker_shed_tuples_total", "counter", "Tuples whose archive write was shed under overload per stateful worker.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].TuplesShed) }},
		{"spear_worker_budget_tuples", "gauge", "Sample budget currently in force per stateful worker.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].BudgetTuples) }},
		{"spear_worker_mem_bytes", "gauge", "Buffered bytes used for result production per stateful worker.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].MemBytes) }},
		{"spear_worker_mem_bytes_peak", "gauge", "High-water mark of buffered bytes per stateful worker.", func(s *Snapshot, i int) []sample { return val(s.WorkerMetrics[i].MemBytesPeak) }},
		{"spear_worker_proc_time_seconds", "gauge", "Per-window processing time per stateful worker (stat: mean, p95).", func(s *Snapshot, i int) []sample {
			return []sample{{"", `stat="mean"`, secs(s.WorkerMetrics[i].ProcTimeMeanNanos)}, {"", `stat="p95"`, secs(s.WorkerMetrics[i].ProcTimeP95Nanos)}}
		}},
	}},
	{func(s *Snapshot) int { return bit(s.Storage != nil) }, nil, []family{
		{"spear_spill_ops_total", "counter", "Spill-store operations by kind.", func(s *Snapshot, _ int) []sample {
			return []sample{{"", `op="store"`, s.Storage.Stores}, {"", `op="get"`, s.Storage.Gets}, {"", `op="delete"`, s.Storage.Deletes}}
		}},
		{"spear_spill_bytes_total", "counter", "Spill-store bytes moved by direction.", func(s *Snapshot, _ int) []sample {
			return []sample{{"", `dir="stored"`, s.Storage.BytesStored}, {"", `dir="fetched"`, s.Storage.BytesFetched}}
		}},
		{"spear_spill_tuples_total", "counter", "Spill-store tuples moved by direction.", func(s *Snapshot, _ int) []sample {
			return []sample{{"", `dir="stored"`, s.Storage.TuplesStored}, {"", `dir="fetched"`, s.Storage.TuplesFetched}}
		}},
	}},
	{func(s *Snapshot) int { return bit(s.SpillPlane != nil) }, nil, []family{
		{"spear_spill_queue_depth", "gauge", "Chunk writes queued in the async spill plane.", func(s *Snapshot, _ int) []sample { return val(s.SpillPlane.QueueDepth) }},
		{"spear_spill_inflight_bytes", "gauge", "Bytes held by queued spill writes awaiting the worker pool.", func(s *Snapshot, _ int) []sample { return val(s.SpillPlane.InflightBytes) }},
		{"spear_spill_async_writes_total", "counter", "Chunk writes completed asynchronously by the spill plane.", func(s *Snapshot, _ int) []sample { return val(s.SpillPlane.AsyncWrites) }},
		{"spear_spill_backpressure_waits_total", "counter", "Spill enqueues that blocked on the in-flight byte budget.", func(s *Snapshot, _ int) []sample { return val(s.SpillPlane.BackpressureWaits) }},
		{"spear_spill_flushes_total", "counter", "Flush/Barrier sync points the spill plane has served.", func(s *Snapshot, _ int) []sample { return val(s.SpillPlane.Flushes) }},
		{"spear_spill_cache_hits_total", "counter", "Window fetches answered from the spill chunk cache.", func(s *Snapshot, _ int) []sample { return val(s.SpillPlane.CacheHits) }},
		{"spear_spill_cache_misses_total", "counter", "Window fetches that missed the spill chunk cache.", func(s *Snapshot, _ int) []sample { return val(s.SpillPlane.CacheMisses) }},
		{"spear_spill_cache_evictions_total", "counter", "Chunk-cache entries evicted by the LRU byte budget.", func(s *Snapshot, _ int) []sample { return val(s.SpillPlane.CacheEvictions) }},
		{"spear_spill_cache_bytes", "gauge", "Bytes resident in the spill chunk cache.", func(s *Snapshot, _ int) []sample { return val(s.SpillPlane.CacheBytes) }},
		{"spear_spill_prefetch_issued_total", "counter", "Watermark-driven chunk prefetches issued.", func(s *Snapshot, _ int) []sample { return val(s.SpillPlane.PrefetchIssued) }},
		{"spear_spill_prefetch_hits_total", "counter", "Cache hits whose entry was loaded by a prefetch.", func(s *Snapshot, _ int) []sample { return val(s.SpillPlane.PrefetchHits) }},
	}},
	{func(s *Snapshot) int { return bit(s.Checkpoint != nil) }, nil, []family{
		{"spear_checkpoint_completed_total", "counter", "Committed checkpoints.", func(s *Snapshot, _ int) []sample { return val(s.Checkpoint.Completed) }},
		{"spear_checkpoint_failed_total", "counter", "Checkpoint rounds aborted by an error.", func(s *Snapshot, _ int) []sample { return val(s.Checkpoint.Failed) }},
		{"spear_checkpoint_bytes_total", "counter", "Snapshot bytes persisted (blobs and manifests).", func(s *Snapshot, _ int) []sample { return val(s.Checkpoint.SnapshotBytes) }},
		{"spear_checkpoint_last_bytes", "gauge", "Size of the most recently committed checkpoint.", func(s *Snapshot, _ int) []sample { return val(s.Checkpoint.LastBytes) }},
		{"spear_checkpoint_recovery_seconds", "gauge", "Time spent restoring state at startup.", func(s *Snapshot, _ int) []sample { return val(secs(s.Checkpoint.RecoveryNanos)) }},
		{"spear_checkpoint_snapshot_mean_seconds", "gauge", "Mean per-operator snapshot duration.", func(s *Snapshot, _ int) []sample { return val(secs(s.Checkpoint.SnapshotMeanNanos)) }},
	}},
	{func(s *Snapshot) int { return len(s.Transport) }, func(s *Snapshot, i int) string { return label("peer", s.Transport[i].Name) }, []family{
		{"spear_transport_frames_total", "counter", "Network-shuffle frames moved per peer link, by direction.", func(s *Snapshot, i int) []sample {
			return []sample{{"", `dir="tx"`, s.Transport[i].TxFrames}, {"", `dir="rx"`, s.Transport[i].RxFrames}}
		}},
		{"spear_transport_bytes_total", "counter", "Network-shuffle wire bytes moved per peer link, by direction.", func(s *Snapshot, i int) []sample {
			return []sample{{"", `dir="tx"`, s.Transport[i].TxBytes}, {"", `dir="rx"`, s.Transport[i].RxBytes}}
		}},
		{"spear_transport_reconnects_total", "counter", "Successful link reconnects per peer.", func(s *Snapshot, i int) []sample { return val(s.Transport[i].Reconnects) }},
		{"spear_transport_credit_stalls_total", "counter", "Sends that blocked on the credit window per peer link.", func(s *Snapshot, i int) []sample { return val(s.Transport[i].CreditStalls) }},
	}},
	{func(s *Snapshot) int { return bit(s.Control != nil) }, nil, []family{
		{"spear_control_slo_seconds", "gauge", "Latency SLO the adaptive accuracy controller holds.", func(s *Snapshot, _ int) []sample { return val(secs(s.Control.SLONanos)) }},
		{"spear_control_target_budget_tuples", "gauge", "Sample budget target the controller last published.", func(s *Snapshot, _ int) []sample { return val(s.Control.TargetBudget) }},
		{"spear_control_budget_bounds_tuples", "gauge", "Budget floor and ceiling the controller moves within.", func(s *Snapshot, _ int) []sample {
			return []sample{{"", `bound="min"`, s.Control.MinBudget}, {"", `bound="max"`, s.Control.MaxBudget}}
		}},
		{"spear_control_shedding", "gauge", "1 while the controller is shedding archive writes, else 0.", func(s *Snapshot, _ int) []sample { return val(bit(s.Control.Shedding)) }},
		{"spear_control_observed_lag_seconds", "gauge", "Worst worker watermark lag the controller last observed.", func(s *Snapshot, _ int) []sample { return val(secs(s.Control.LagNanos)) }},
		{"spear_control_observed_queue_fill", "gauge", "Worst edge fill fraction the controller last observed.", func(s *Snapshot, _ int) []sample { return val(s.Control.QueueFill) }},
		{"spear_control_source_rate_tuples", "gauge", "Source input rate the controller last observed (tuples/s); with label engaged=\"shed\", the rate at which shedding last engaged.", func(s *Snapshot, _ int) []sample {
			return []sample{{"", `engaged="now"`, s.Control.SourceRate}, {"", `engaged="shed"`, s.Control.ShedRate}}
		}},
		{"spear_control_decisions_total", "counter", "Controller decisions by action.", func(s *Snapshot, _ int) []sample {
			c := s.Control
			return []sample{{"", `action="tighten"`, c.Tighten}, {"", `action="expand"`, c.Expand}, {"", `action="shed_on"`, c.ShedOn}, {"", `action="shed_off"`, c.ShedOff}, {"", `action="hold"`, c.Hold}}
		}},
	}},
	{once, nil, []family{
		{"spear_trace_events_total", "counter", "Lifecycle trace events recorded into the ring.", func(s *Snapshot, _ int) []sample { return val(s.TraceRecorded) }},
	}},
}

func edgeLabel(s *Snapshot, i int) string { return label("edge", s.Edges[i].Name) }

// validWM is a watermark family's sample for worker w: its value in
// seconds once the worker has a watermark to measure, none before.
func validWM(w WorkerWatermark, ns int64) []sample {
	if !w.Valid {
		return nil
	}
	return val(secs(ns))
}

// Families returns the name of every metric family WritePrometheus
// declares, in exposition order.
func Families() []string {
	var names []string
	for _, g := range families {
		for _, f := range g.fams {
			names = append(names, f.name)
		}
	}
	return names
}

// WritePrometheus renders s in the Prometheus text exposition format
// (version 0.0.4). A group's families are all declared first — even
// with no samples, so scrapers can rely on the schema from the first
// scrape onward — then each item's samples follow family by family.
func WritePrometheus(w io.Writer, s *Snapshot) {
	for _, g := range families {
		for _, f := range g.fams {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		}
		for i, n := 0, g.n(s); i < n; i++ {
			for _, f := range g.fams {
				for _, sm := range f.read(s, i) {
					labels := sm.labels
					if g.own != nil {
						labels = strings.TrimSuffix(g.own(s, i)+","+labels, ",")
					}
					if labels != "" {
						labels = "{" + labels + "}"
					}
					fmt.Fprintf(w, "%s%s%s %v\n", f.name, sm.suffix, labels, sm.v)
				}
			}
		}
	}
}

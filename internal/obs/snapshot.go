package obs

import (
	"fmt"
	"io"
	"strings"
	"time"

	"spear/internal/storage"
)

// spillStore / spillStats alias the storage types so only this file —
// the one actually reading spill telemetry — imports the storage
// package. The errcheck-lite analyzer scopes its spill-call heuristic
// by file imports; the atomic .Store calls elsewhere in this package
// are not storage operations and must stay out of its scope.
type (
	spillStore = storage.SpillStore
	spillStats = storage.Stats
)

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

// WorkerMetricsSnapshot is one stateful worker's paper telemetry.
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
	Completed          int64   `json:"completed"`
	Failed             int64   `json:"failed"`
	SnapshotBytes      int64   `json:"snapshot_bytes"`
	LastBytes          int64   `json:"last_bytes"`
	RecoveryNanos      int64   `json:"recovery_nanos"`
	SnapshotMeanNanos  float64 `json:"snapshot_mean_nanos"`
	AlignStallSumNanos float64 `json:"align_stall_sum_nanos"`
}

// Snapshot is one immutable picture of the running query. Reporter
// ticks produce them; the HTTP endpoints render them.
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
	// StorageDelta is the traffic since the previous reporter tick
	// (nil on on-demand snapshots and the first tick).
	StorageDelta *storage.Stats `json:"storage_delta,omitempty"`

	// SpillPlane is the async spill I/O plane's queue/cache/prefetch
	// telemetry; nil when no plane is attached.
	SpillPlane *SpillPlaneSnapshot `json:"spill_plane,omitempty"`

	Checkpoint *CheckpointSnapshot `json:"checkpoint,omitempty"`
	// CheckpointDelta holds the completed/failed/bytes movement since
	// the previous reporter tick.
	CheckpointDelta *CheckpointSnapshot `json:"checkpoint_delta,omitempty"`

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
	edges := make([]Edge, len(in.edges))
	copy(edges, in.edges)
	workers := make([]*WorkerObs, len(in.workers))
	copy(workers, in.workers)
	sink := in.sink
	transports := make([]*TransportObs, len(in.transports))
	copy(transports, in.transports)
	reg, store, ckpt, trace := in.reg, in.store, in.ckpt, in.trace
	plane, control := in.plane, in.control
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

	if reg != nil {
		for _, w := range reg.Workers() {
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
	}

	if store != nil {
		st := store.Stats()
		s.Storage = &st
	}
	if plane != nil {
		s.SpillPlane = spillPlaneSnapshot(plane)
	}
	if ckpt != nil {
		s.Checkpoint = &CheckpointSnapshot{
			Completed:          ckpt.Completed.Load(),
			Failed:             ckpt.Failed.Load(),
			SnapshotBytes:      ckpt.SnapshotBytes.Load(),
			LastBytes:          ckpt.LastBytes.Load(),
			RecoveryNanos:      ckpt.RecoveryTime.Load(),
			SnapshotMeanNanos:  ckpt.SnapshotTime.Mean(),
			AlignStallSumNanos: ckpt.AlignStall.Sum(),
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

// escapeLabel escapes a Prometheus label value.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// WritePrometheus renders s in the Prometheus text exposition format
// (version 0.0.4). Every family is emitted even when zero, so scrapers
// can rely on the schema from the first scrape onward.
func WritePrometheus(w io.Writer, s *Snapshot) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	family := func(name, help, typ string) {
		p("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	family("spear_source_tuples_total", "Tuples emitted by the source spout.", "counter")
	p("spear_source_tuples_total %d\n", s.SourceTuples)
	family("spear_source_highwater_timestamp_seconds", "Maximum event time observed at the source, seconds.", "gauge")
	p("spear_source_highwater_timestamp_seconds %g\n", float64(s.SourceHighWater)/1e9)

	family("spear_edge_queue_depth", "Instantaneous queue depth (batches) of one inter-worker channel.", "gauge")
	for _, e := range s.Edges {
		p("spear_edge_queue_depth{edge=\"%s\"} %d\n", escapeLabel(e.Name), e.Depth)
	}
	family("spear_edge_queue_capacity", "Capacity (batches) of one inter-worker channel.", "gauge")
	for _, e := range s.Edges {
		p("spear_edge_queue_capacity{edge=\"%s\"} %d\n", escapeLabel(e.Name), e.Capacity)
	}
	family("spear_sink_queue_depth", "Instantaneous depth of the result fan-in channel.", "gauge")
	family("spear_sink_queue_capacity", "Capacity of the result fan-in channel.", "gauge")
	if s.Sink != nil {
		p("spear_sink_queue_depth %d\n", s.Sink.Depth)
		p("spear_sink_queue_capacity %d\n", s.Sink.Capacity)
	}

	family("spear_worker_watermark_timestamp_seconds", "Last merged watermark per windowed worker, seconds of event time.", "gauge")
	family("spear_worker_watermark_lag_seconds", "Event-time lag of each windowed worker behind the source high-water mark.", "gauge")
	for _, w := range s.Workers {
		if !w.Valid {
			continue
		}
		p("spear_worker_watermark_timestamp_seconds{worker=\"%s\"} %g\n", escapeLabel(w.Name), float64(w.Watermark)/1e9)
		p("spear_worker_watermark_lag_seconds{worker=\"%s\"} %g\n", escapeLabel(w.Name), float64(w.LagNanos)/1e9)
	}

	family("spear_batch_occupancy", "Tuples per received data batch at the windowed workers.", "histogram")
	for _, b := range s.Occupancy.Buckets {
		le := "+Inf"
		if b.Le >= 0 {
			le = fmt.Sprintf("%d", b.Le)
		}
		p("spear_batch_occupancy_bucket{le=%q} %d\n", le, b.Cumulative)
	}
	p("spear_batch_occupancy_sum %d\n", s.Occupancy.Sum)
	p("spear_batch_occupancy_count %d\n", s.Occupancy.Count)

	family("spear_worker_tuples_total", "Tuples ingested per stateful worker.", "counter")
	family("spear_worker_windows_total", "Windows fired per stateful worker.", "counter")
	family("spear_worker_windows_accelerated_total", "Windows answered from the sample per stateful worker.", "counter")
	family("spear_worker_windows_exact_total", "Windows processed in full per stateful worker.", "counter")
	family("spear_worker_windows_spilled_total", "Windows that touched secondary storage per stateful worker.", "counter")
	family("spear_worker_windows_shed_total", "Windows answered sample-only because load shedding dropped their archive.", "counter")
	family("spear_worker_late_dropped_total", "Late tuples dropped per stateful worker.", "counter")
	family("spear_worker_estimation_failures_total", "Accuracy checks that rejected acceleration per stateful worker.", "counter")
	family("spear_worker_shed_tuples_total", "Tuples whose archive write was shed under overload per stateful worker.", "counter")
	family("spear_worker_budget_tuples", "Sample budget currently in force per stateful worker.", "gauge")
	family("spear_worker_mem_bytes", "Buffered bytes used for result production per stateful worker.", "gauge")
	family("spear_worker_mem_bytes_peak", "High-water mark of buffered bytes per stateful worker.", "gauge")
	family("spear_worker_proc_time_seconds", "Per-window processing time per stateful worker (stat: mean, p95).", "gauge")
	for _, m := range s.WorkerMetrics {
		n := escapeLabel(m.Name)
		p("spear_worker_tuples_total{worker=\"%s\"} %d\n", n, m.TuplesIn)
		p("spear_worker_windows_total{worker=\"%s\"} %d\n", n, m.WindowsTotal)
		p("spear_worker_windows_accelerated_total{worker=\"%s\"} %d\n", n, m.WindowsAccelerated)
		p("spear_worker_windows_exact_total{worker=\"%s\"} %d\n", n, m.WindowsExact)
		p("spear_worker_windows_spilled_total{worker=\"%s\"} %d\n", n, m.WindowsSpilled)
		p("spear_worker_windows_shed_total{worker=\"%s\"} %d\n", n, m.WindowsShed)
		p("spear_worker_late_dropped_total{worker=\"%s\"} %d\n", n, m.LateDropped)
		p("spear_worker_estimation_failures_total{worker=\"%s\"} %d\n", n, m.EstimationFailures)
		p("spear_worker_shed_tuples_total{worker=\"%s\"} %d\n", n, m.TuplesShed)
		p("spear_worker_budget_tuples{worker=\"%s\"} %d\n", n, m.BudgetTuples)
		p("spear_worker_mem_bytes{worker=\"%s\"} %d\n", n, m.MemBytes)
		p("spear_worker_mem_bytes_peak{worker=\"%s\"} %d\n", n, m.MemBytesPeak)
		p("spear_worker_proc_time_seconds{worker=\"%s\",stat=\"mean\"} %g\n", n, m.ProcTimeMeanNanos/1e9)
		p("spear_worker_proc_time_seconds{worker=\"%s\",stat=\"p95\"} %g\n", n, m.ProcTimeP95Nanos/1e9)
	}

	family("spear_spill_ops_total", "Spill-store operations by kind.", "counter")
	family("spear_spill_bytes_total", "Spill-store bytes moved by direction.", "counter")
	family("spear_spill_tuples_total", "Spill-store tuples moved by direction.", "counter")
	if s.Storage != nil {
		p("spear_spill_ops_total{op=\"store\"} %d\n", s.Storage.Stores)
		p("spear_spill_ops_total{op=\"get\"} %d\n", s.Storage.Gets)
		p("spear_spill_ops_total{op=\"delete\"} %d\n", s.Storage.Deletes)
		p("spear_spill_bytes_total{dir=\"stored\"} %d\n", s.Storage.BytesStored)
		p("spear_spill_bytes_total{dir=\"fetched\"} %d\n", s.Storage.BytesFetched)
		p("spear_spill_tuples_total{dir=\"stored\"} %d\n", s.Storage.TuplesStored)
		p("spear_spill_tuples_total{dir=\"fetched\"} %d\n", s.Storage.TuplesFetched)
	}

	family("spear_spill_queue_depth", "Chunk writes queued in the async spill plane.", "gauge")
	family("spear_spill_inflight_bytes", "Bytes held by queued spill writes awaiting the worker pool.", "gauge")
	family("spear_spill_async_writes_total", "Chunk writes completed asynchronously by the spill plane.", "counter")
	family("spear_spill_backpressure_waits_total", "Spill enqueues that blocked on the in-flight byte budget.", "counter")
	family("spear_spill_flushes_total", "Flush/Barrier sync points the spill plane has served.", "counter")
	family("spear_spill_cache_hits_total", "Window fetches answered from the spill chunk cache.", "counter")
	family("spear_spill_cache_misses_total", "Window fetches that missed the spill chunk cache.", "counter")
	family("spear_spill_cache_evictions_total", "Chunk-cache entries evicted by the LRU byte budget.", "counter")
	family("spear_spill_cache_bytes", "Bytes resident in the spill chunk cache.", "gauge")
	family("spear_spill_prefetch_issued_total", "Watermark-driven chunk prefetches issued.", "counter")
	family("spear_spill_prefetch_hits_total", "Cache hits whose entry was loaded by a prefetch.", "counter")
	family("spear_spill_compress_raw_bytes_total", "Raw tuple bytes presented to the spill chunk codec.", "counter")
	family("spear_spill_compress_encoded_bytes_total", "Encoded bytes the spill chunk codec wrote to storage.", "counter")
	if s.SpillPlane != nil {
		sp := s.SpillPlane
		p("spear_spill_queue_depth %d\n", sp.QueueDepth)
		p("spear_spill_inflight_bytes %d\n", sp.InflightBytes)
		p("spear_spill_async_writes_total %d\n", sp.AsyncWrites)
		p("spear_spill_backpressure_waits_total %d\n", sp.BackpressureWaits)
		p("spear_spill_flushes_total %d\n", sp.Flushes)
		p("spear_spill_cache_hits_total %d\n", sp.CacheHits)
		p("spear_spill_cache_misses_total %d\n", sp.CacheMisses)
		p("spear_spill_cache_evictions_total %d\n", sp.CacheEvictions)
		p("spear_spill_cache_bytes %d\n", sp.CacheBytes)
		p("spear_spill_prefetch_issued_total %d\n", sp.PrefetchIssued)
		p("spear_spill_prefetch_hits_total %d\n", sp.PrefetchHits)
		p("spear_spill_compress_raw_bytes_total %d\n", sp.RawBytes)
		p("spear_spill_compress_encoded_bytes_total %d\n", sp.EncodedBytes)
	}

	family("spear_checkpoint_completed_total", "Committed checkpoints.", "counter")
	family("spear_checkpoint_failed_total", "Checkpoint rounds aborted by an error.", "counter")
	family("spear_checkpoint_bytes_total", "Snapshot bytes persisted (blobs and manifests).", "counter")
	family("spear_checkpoint_last_bytes", "Size of the most recently committed checkpoint.", "gauge")
	family("spear_checkpoint_recovery_seconds", "Time spent restoring state at startup.", "gauge")
	family("spear_checkpoint_snapshot_mean_seconds", "Mean per-operator snapshot duration.", "gauge")
	family("spear_checkpoint_align_stall_seconds_total", "Total barrier-alignment stall across workers.", "counter")
	if s.Checkpoint != nil {
		c := s.Checkpoint
		p("spear_checkpoint_completed_total %d\n", c.Completed)
		p("spear_checkpoint_failed_total %d\n", c.Failed)
		p("spear_checkpoint_bytes_total %d\n", c.SnapshotBytes)
		p("spear_checkpoint_last_bytes %d\n", c.LastBytes)
		p("spear_checkpoint_recovery_seconds %g\n", float64(c.RecoveryNanos)/1e9)
		p("spear_checkpoint_snapshot_mean_seconds %g\n", c.SnapshotMeanNanos/1e9)
		p("spear_checkpoint_align_stall_seconds_total %g\n", c.AlignStallSumNanos/1e9)
	}

	family("spear_transport_frames_total", "Network-shuffle frames moved per peer link, by direction.", "counter")
	family("spear_transport_bytes_total", "Network-shuffle wire bytes moved per peer link, by direction.", "counter")
	family("spear_transport_reconnects_total", "Successful link reconnects per peer.", "counter")
	family("spear_transport_credit_stalls_total", "Sends that blocked on the credit window per peer link.", "counter")
	for _, t := range s.Transport {
		n := escapeLabel(t.Name)
		p("spear_transport_frames_total{peer=\"%s\",dir=\"tx\"} %d\n", n, t.TxFrames)
		p("spear_transport_frames_total{peer=\"%s\",dir=\"rx\"} %d\n", n, t.RxFrames)
		p("spear_transport_bytes_total{peer=\"%s\",dir=\"tx\"} %d\n", n, t.TxBytes)
		p("spear_transport_bytes_total{peer=\"%s\",dir=\"rx\"} %d\n", n, t.RxBytes)
		p("spear_transport_reconnects_total{peer=\"%s\"} %d\n", n, t.Reconnects)
		p("spear_transport_credit_stalls_total{peer=\"%s\"} %d\n", n, t.CreditStalls)
	}

	family("spear_control_slo_seconds", "Latency SLO the adaptive accuracy controller holds.", "gauge")
	family("spear_control_target_budget_tuples", "Sample budget target the controller last published.", "gauge")
	family("spear_control_budget_bounds_tuples", "Budget floor and ceiling the controller moves within.", "gauge")
	family("spear_control_shedding", "1 while the controller is shedding archive writes, else 0.", "gauge")
	family("spear_control_observed_lag_seconds", "Worst worker watermark lag the controller last observed.", "gauge")
	family("spear_control_observed_queue_fill", "Worst edge fill fraction the controller last observed.", "gauge")
	family("spear_control_source_rate_tuples", "Source input rate the controller last observed (tuples/s); with label engaged=\"shed\", the rate at which shedding last engaged.", "gauge")
	family("spear_control_decisions_total", "Controller decisions by action.", "counter")
	if s.Control != nil {
		c := s.Control
		p("spear_control_slo_seconds %g\n", float64(c.SLONanos)/1e9)
		p("spear_control_target_budget_tuples %d\n", c.TargetBudget)
		p("spear_control_budget_bounds_tuples{bound=\"min\"} %d\n", c.MinBudget)
		p("spear_control_budget_bounds_tuples{bound=\"max\"} %d\n", c.MaxBudget)
		shed := 0
		if c.Shedding {
			shed = 1
		}
		p("spear_control_shedding %d\n", shed)
		p("spear_control_observed_lag_seconds %g\n", float64(c.LagNanos)/1e9)
		p("spear_control_observed_queue_fill %g\n", c.QueueFill)
		p("spear_control_source_rate_tuples{engaged=\"now\"} %g\n", c.SourceRate)
		p("spear_control_source_rate_tuples{engaged=\"shed\"} %g\n", c.ShedRate)
		p("spear_control_decisions_total{action=\"tighten\"} %d\n", c.Tighten)
		p("spear_control_decisions_total{action=\"expand\"} %d\n", c.Expand)
		p("spear_control_decisions_total{action=\"shed_on\"} %d\n", c.ShedOn)
		p("spear_control_decisions_total{action=\"shed_off\"} %d\n", c.ShedOff)
		p("spear_control_decisions_total{action=\"hold\"} %d\n", c.Hold)
	}

	family("spear_trace_events_total", "Lifecycle trace events recorded into the ring.", "counter")
	p("spear_trace_events_total %d\n", s.TraceRecorded)
}

// Package spear is a stream processing engine that expedites stateful
// window operations by trading accuracy for performance under explicit
// user guarantees, reproducing the SPEAr system (Katsipoulakis,
// Labrinidis, Chrysanthis — ICDE 2020).
//
// A continuous query is built fluently, mirroring the paper's Fig. 5:
//
//	res, err := spear.NewQuery("rides").
//		Source(spear.FromSlice(tuples)).
//		SlidingWindow(15*time.Minute, 5*time.Minute).
//		Percentile(fare, 0.95).
//		BudgetTuples(124_998). // the paper's .budget(1MB)
//		Error(0.10, 0.95).
//		Run(func(worker int, r spear.Result) { ... })
//
// Each stateful worker keeps, within the budget b, an online sample and
// statistics of every active window. At watermark arrival it estimates
// the accuracy ε̂_w achievable from the budget; if ε̂_w ≤ ε the window is
// answered from the sample in O(b), otherwise it is processed exactly —
// the same cost as a conventional engine. Scalar non-holistic
// aggregates additionally use an incremental exact path.
//
// A query is observed through one registry: give it ObserveWith(ins)
// with ins from NewInstruments, read ins.Snapshot at any time, and serve
// ins over HTTP with ServeObservability.
package spear

import (
	"errors"
	"fmt"
	"time"

	"spear/internal/agg"
	"spear/internal/checkpoint"
	"spear/internal/control"
	"spear/internal/core"
	"spear/internal/obs"
	"spear/internal/sample"
	"spear/internal/spe"
	"spear/internal/storage"
	"spear/internal/transport"
	"spear/internal/tuple"
	"spear/internal/window"
)

// Tuple is one stream record: an event timestamp (nanoseconds) plus
// typed field values.
type Tuple = tuple.Tuple

// Value is one typed tuple field.
type Value = tuple.Value

// Result is one window's output, carrying the production mode (exact,
// sampled, incremental), the estimated error, and the scalar or
// per-group values.
type Result = core.Result

// Summary aggregates a run's telemetry: window counts, acceleration
// fraction, pooled mean and 95th-percentile window processing times,
// and mean per-worker peak memory.
type Summary = obs.Summary

// Source produces the input stream; Next returns ok=false at the end.
type Source = spe.Spout

// Convenience re-exports for building tuples and sources.
var (
	// NewTuple builds a tuple from a timestamp and values.
	NewTuple = tuple.New
	// Int wraps an int64 field value.
	Int = tuple.Int
	// Float wraps a float64 field value.
	Float = tuple.Float
	// Str wraps a string field value.
	Str = tuple.String_
	// Bool wraps a bool field value.
	Bool = tuple.Bool
)

// KindString is the kind of a Str value (Value.Kind).
const KindString = tuple.KindString

// FromSlice returns a Source replaying ts in order.
func FromSlice(ts []Tuple) Source { return spe.NewSliceSpout(ts) }

// FromFunc adapts a generator function to a Source.
func FromFunc(f func() (Tuple, bool)) Source { return spe.FuncSpout(f) }

// Backend selects the stateful processing strategy, mainly for
// benchmarking SPEAr against its baselines.
type Backend uint8

// Available backends.
const (
	// BackendSPEAr is the approximate engine with accuracy guarantees
	// (the default).
	BackendSPEAr Backend = iota
	// BackendExact is the conventional single-buffer engine ("Storm"
	// in the paper's figures): every window processed in full.
	BackendExact
	// BackendIncremental maintains non-holistic scalar aggregates at
	// tuple arrival ("Inc-Storm"): exact, O(1) per watermark, but
	// limited to non-holistic scalar operations.
	BackendIncremental
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case BackendExact:
		return "exact"
	case BackendIncremental:
		return "incremental"
	default:
		return "spear"
	}
}

// Query is a continuous query under construction. Methods return the
// query for chaining; configuration errors accumulate and surface at
// Run. What the methods set is a plan in the making: Run and ServeShard
// compile it once and read only the compiled plan.
type Query struct {
	errs     []error
	haveSpec bool
	haveAgg  bool
	p        plan
}

// plan is a compiled Query: every setting validated and defaulted, in
// one value that Run and ServeShard read and never write.
type plan struct {
	// worker fixes what a windowed worker computes: a shard builds its
	// managers from it, and the handshake hashes it whole (topoHash).
	worker workerPlan
	// fns holds the function values the workers call beside it.
	fns planFuncs

	source    Source
	maps      []spe.MapFunc
	par       int
	batchSize int
	wmPeriod  time.Duration
	wmLag     time.Duration

	store        storage.SpillStore
	spillWorkers int

	ckptTuples   int64
	ckptInterval time.Duration
	ckptRecover  bool

	control control.Config // SLO > 0 runs the adaptive accuracy controller
	obsInto *obs.Instruments

	// Distributed runtime (Distribute / ServeShard).
	nodes    []string
	dialer   transport.Dialer
	redials  int
	backoff  time.Duration
	peerWait time.Duration
}

// workerPlan is the part of a plan that determines a window worker's
// results. Its fields are plain values — no func, pointer, interface,
// map or slice — so that %#v prints every one of them (TestPlanFields).
type workerPlan struct {
	Name               string
	Backend            Backend
	Spec               window.Spec
	Agg                agg.Func
	Custom             string // CustomAgg's name; its function is in planFuncs
	Epsilon            float64
	Confidence         float64
	Budget             int
	BudgetMin          int // AdaptiveBudget's bounds; BudgetMax 0 keeps Budget fixed
	BudgetMax          int
	KnownGroups        int
	Seed               int64
	Grouped            bool
	DisableIncremental bool
}

// planFuncs are the function values a worker calls. They cannot be
// hashed: a source and its shards must be built from the same code.
type planFuncs struct {
	value      tuple.Extractor
	keyBy      tuple.KeyExtractor
	custom     *agg.CustomFunc
	scalarEst  core.ScalarEstimator
	groupedEst core.GroupedEstimator
}

// NewQuery starts a query named name (used in telemetry and errors).
func NewQuery(name string) *Query {
	return &Query{p: plan{
		worker: workerPlan{Name: name, Epsilon: 0.10, Confidence: 0.95, Seed: 1},
		par:    1,
	}}
}

func (q *Query) errf(format string, args ...any) *Query {
	q.errs = append(q.errs, fmt.Errorf("spear: %s: "+format, append([]any{q.p.worker.Name}, args...)...))
	return q
}

// Source sets the input stream.
func (q *Query) Source(s Source) *Query {
	q.p.source = s
	return q
}

// Map appends a stateless transformation stage; returning ok=false
// drops the tuple (filter). Stages run in the source goroutine, in
// order, as one chain ahead of the windowed workers — on every plan:
// local, checkpointed, distributed. They are not spread over
// Parallelism(n) cores: parallelise expensive per-tuple work before the
// source. (Measured price, 2-vCPU box, one Map ahead of a par-2 mean: a
// stage goroutine per worker drew level with the chain at about 50 ns
// of Map work per tuple and was ahead from 75 ns; DESIGN.md §16.3.)
func (q *Query) Map(fn func(Tuple) (Tuple, bool)) *Query {
	if fn == nil {
		return q.errf("nil Map function")
	}
	q.p.maps = append(q.p.maps, spe.MapFunc(fn))
	return q
}

// SlidingWindow sets a time-based sliding window over event time.
func (q *Query) SlidingWindow(rng, slide time.Duration) *Query {
	q.p.worker.Spec = window.Sliding(rng, slide)
	q.haveSpec = true
	return q
}

// TumblingWindow sets a time-based tumbling window.
func (q *Query) TumblingWindow(rng time.Duration) *Query {
	q.p.worker.Spec = window.Tumbling(rng)
	q.haveSpec = true
	return q
}

// CountSlidingWindow sets a count-based sliding window.
func (q *Query) CountSlidingWindow(rng, slide int64) *Query {
	q.p.worker.Spec = window.CountSliding(rng, slide)
	q.haveSpec = true
	return q
}

// GroupBy makes the stateful operation grouped: one result per distinct
// key per window, with tuples routed to workers by key hash.
func (q *Query) GroupBy(key func(Tuple) string) *Query {
	if key == nil {
		return q.errf("nil GroupBy key")
	}
	q.p.fns.keyBy = key
	q.p.worker.Grouped = true
	return q
}

// KnownGroups declares the number of distinct groups at submission
// time, letting SPEAr build the stratified sample at tuple arrival
// (§4.1) instead of during the watermark scan.
func (q *Query) KnownGroups(n int) *Query {
	if n <= 0 {
		return q.errf("KnownGroups %d must be positive", n)
	}
	q.p.worker.KnownGroups = n
	return q
}

func (q *Query) setAgg(f agg.Func, value func(Tuple) float64) *Query {
	if q.haveAgg {
		return q.errf("aggregate already set to %s", q.p.worker.Agg)
	}
	if value == nil {
		return q.errf("nil value extractor for %s", f)
	}
	q.p.worker.Agg = f
	q.p.fns.value = value
	q.haveAgg = true
	return q
}

// Count counts tuples per window (per group if grouped).
func (q *Query) Count() *Query {
	return q.setAgg(agg.Func{Op: agg.Count}, func(Tuple) float64 { return 0 })
}

// Sum aggregates the sum of value per window.
func (q *Query) Sum(value func(Tuple) float64) *Query {
	return q.setAgg(agg.Func{Op: agg.Sum}, value)
}

// Mean aggregates the arithmetic mean of value per window.
func (q *Query) Mean(value func(Tuple) float64) *Query {
	return q.setAgg(agg.Func{Op: agg.Mean}, value)
}

// Min aggregates the minimum of value per window.
func (q *Query) Min(value func(Tuple) float64) *Query {
	return q.setAgg(agg.Func{Op: agg.Min}, value)
}

// Max aggregates the maximum of value per window.
func (q *Query) Max(value func(Tuple) float64) *Query {
	return q.setAgg(agg.Func{Op: agg.Max}, value)
}

// Variance aggregates the unbiased sample variance of value per window.
func (q *Query) Variance(value func(Tuple) float64) *Query {
	return q.setAgg(agg.Func{Op: agg.Variance}, value)
}

// StdDev aggregates the sample standard deviation of value per window.
func (q *Query) StdDev(value func(Tuple) float64) *Query {
	return q.setAgg(agg.Func{Op: agg.StdDev}, value)
}

// Percentile aggregates the p-th percentile (p in [0,1]) of value per
// window — a holistic operation. For percentiles the error bound ε is a
// rank error, following Manku et al.
func (q *Query) Percentile(value func(Tuple) float64, p float64) *Query {
	return q.setAgg(agg.Func{Op: agg.Percentile, P: p}, value)
}

// Median aggregates the median of value per window.
func (q *Query) Median(value func(Tuple) float64) *Query {
	return q.Percentile(value, 0.5)
}

// CustomFunc is a user-defined holistic aggregate; see
// agg.CustomFunc for the contract.
type CustomFunc = agg.CustomFunc

// CustomAgg sets a user-defined holistic scalar aggregate together
// with its accuracy-estimation function — the paper's API for custom
// approximate stateful operations (§4). The estimator decides, per
// window, whether the budget's sample supports an acceptable answer;
// custom operations without a sound estimator should return ok=false
// to force exact processing.
func (q *Query) CustomAgg(fn CustomFunc, value func(Tuple) float64, est core.ScalarEstimator) *Query {
	if q.haveAgg {
		return q.errf("aggregate already set")
	}
	if value == nil {
		return q.errf("nil value extractor for %s", fn.Name)
	}
	if est == nil {
		return q.errf("custom aggregate %s requires an estimator", fn.Name)
	}
	q.p.worker.Custom = fn.Name
	q.p.fns.custom = &fn
	q.p.fns.value = value
	q.p.fns.scalarEst = est
	q.haveAgg = true
	return q
}

// BudgetTuples sets the per-worker memory budget b in tuples — the
// reservoir capacity (scalar) or sample size (grouped). The paper's
// .budget(1MB) of 8-byte values is BudgetTuples(124_998): 10⁶/8 values
// less two slots for the window's variance and size.
func (q *Query) BudgetTuples(n int) *Query {
	if n <= 0 {
		return q.errf("budget %d must be positive", n)
	}
	q.p.worker.Budget = n
	return q
}

// AdaptiveBudget lets the engine adjust the budget online between
// windows (the paper's future-work extension): estimation failures grow
// it, comfortable accelerations shrink it, within [min, max]. The
// starting value is BudgetTuples (or the default). Only a scalar SPEAr
// worker takes these steps, so Run refuses AdaptiveBudget on a grouped
// query or a baseline backend unless LatencySLO, whose controller the
// bounds then bound, is set.
func (q *Query) AdaptiveBudget(min, max int) *Query {
	if min < 1 || max < min {
		return q.errf("adaptive budget bounds [%d, %d] invalid", min, max)
	}
	q.p.worker.BudgetMin, q.p.worker.BudgetMax = min, max
	return q
}

// LatencySLO enables the adaptive accuracy controller: a feedback loop
// from the live observability plane to every worker's sample budget.
// While the worst worker's watermark lag exceeds d (or an internal
// queue nears saturation) the controller tightens budgets toward a
// floor — shrinking reservoirs online, which loosens ε̂_w and steers
// more windows onto the O(b) sampled path — and at the floor, with lag
// or a queue's saturation lasting past 2d, it sheds archive writes,
// trading the exact fallback for sample-only answers whose realized
// bound is reported per window (Result.ContractMet reports false for
// those). With headroom it recovers in reverse order. It observes every
// d/3, within [2ms, 250ms]. AdaptiveBudget(min, max) supplies the
// budget bounds; without it they default to [BudgetTuples/16, BudgetTuples].
//
// Every Result carries the contract it was held to (Epsilon,
// Confidence) and the budget in force (Budget), so downstream consumers
// always see the error/confidence context of each window even as the
// controller moves the budget. The controller requires the in-process
// runtime; it does not compose with Distribute.
func (q *Query) LatencySLO(d time.Duration) *Query {
	if d <= 0 {
		return q.errf("latency SLO %v must be positive", d)
	}
	q.p.control.SLO = d
	return q
}

// Error sets the accuracy specification: an accelerated result deviates
// from the exact one by at most epsilon, for a confidence fraction of
// windows — the paper's .error(10%, 95%).
func (q *Query) Error(epsilon, confidence float64) *Query {
	q.p.worker.Epsilon = epsilon
	q.p.worker.Confidence = confidence
	return q
}

// Parallelism sets the number of stateful workers (the paper's "nodes").
// Map stages are not counted in it: they run in the source goroutine.
func (q *Query) Parallelism(n int) *Query {
	if n <= 0 {
		return q.errf("parallelism %d must be positive", n)
	}
	q.p.par = n
	return q
}

// WithBackend selects SPEAr or a baseline engine.
func (q *Query) WithBackend(b Backend) *Query {
	q.p.worker.Backend = b
	return q
}

// Seed fixes the sampling seed for reproducible runs.
func (q *Query) Seed(s int64) *Query {
	q.p.worker.Seed = s
	return q
}

// Columnar is inert: it refuses a negative field and does nothing
// else. Every windowed worker hands its manager rows, the one way into
// a manager. It stays because the benchmark's etl_columnar workload
// calls it (ROADMAP 3(e)).
func (q *Query) Columnar(valueField int) *Query {
	if valueField < 0 {
		return q.errf("Columnar value field %d negative", valueField)
	}
	return q
}

// BatchSize sets the micro-batch size for inter-stage channel hops:
// workers move tuples between pipeline stages in batches of up to n,
// flushing early on watermarks, barriers, and stream end, so windowing,
// watermark, and checkpoint semantics are identical to per-tuple
// transfer. 1 disables batching (per-tuple sends); zero keeps the
// default of 64. Larger batches raise throughput at the cost of up to
// n tuples of intra-pipeline latency between watermarks.
func (q *Query) BatchSize(n int) *Query {
	if n < 0 {
		return q.errf("batch size %d must be non-negative", n)
	}
	q.p.batchSize = n
	return q
}

// WatermarkEvery overrides the watermark period (default: the window
// slide) and lag (default: zero, for in-order sources).
func (q *Query) WatermarkEvery(period, lag time.Duration) *Query {
	if period < 0 || lag < 0 {
		return q.errf("watermark period %v and lag %v must be non-negative", period, lag)
	}
	q.p.wmPeriod = period
	q.p.wmLag = lag
	return q
}

// SpillStore overrides secondary storage S (default: an in-process
// store). Use storage-backed implementations for durability.
func (q *Query) SpillStore(s storage.SpillStore) *Query {
	q.p.store = s
	return q
}

// SpillWorkers enables the asynchronous spill I/O plane with n
// background writers: archive Stores are queued (write-behind) and
// serviced off the hot path, with back-pressure once 8 MiB of writes
// are in flight, a 32 MiB chunk cache for reads, and a durability
// barrier before every checkpoint snapshot. A window fire that reads S
// queues each pane's read behind that pane's pending writes, so it sees
// every tuple stored before it. n = 0 (the default) keeps archiving
// synchronous. Results are identical either way — the plane changes
// when bytes move, never what they say.
func (q *Query) SpillWorkers(n int) *Query {
	if n < 0 {
		return q.errf("SpillWorkers %d negative", n)
	}
	q.p.spillWorkers = n
	return q
}

// SpillAhead does nothing: the spill plane does not read ahead, since
// the chunk cache of SpillWorkers already serves the panes overlapping
// windows share. It refuses a negative n and is otherwise ignored; it
// stays so that code written against it still builds.
func (q *Query) SpillAhead(n int) *Query {
	if n < 0 {
		return q.errf("SpillAhead %d negative", n)
	}
	return q
}

// DisableIncremental forces non-holistic scalar aggregates through the
// sample-and-estimate path (the paper's §5.5 configuration).
func (q *Query) DisableIncremental() *Query {
	q.p.worker.DisableIncremental = true
	return q
}

// EstimateGroupedWith installs a custom accuracy-estimation function
// for grouped operations.
func (q *Query) EstimateGroupedWith(est core.GroupedEstimator) *Query {
	q.p.fns.groupedEst = est
	return q
}

// Observability re-exports: the live observability plane's registry,
// point-in-time snapshot, and sampled tuple-lifecycle trace event.
type (
	// Instruments is the live probe registry a running query publishes
	// into; obtain one via ObserveWith for in-process inspection.
	Instruments = obs.Instruments
	// Snapshot is one immutable picture of a running query (queue
	// depths, watermark lag, occupancy, spill and checkpoint traffic).
	Snapshot = obs.Snapshot
	// TraceEvent is one sampled lifecycle observation (ingest → assign
	// → fire → emit).
	TraceEvent = obs.TraceEvent
)

// NewInstruments returns an empty live-instrument registry to pass to
// ObserveWith; snapshot it with its Snapshot method at any time during
// or after the run. Call its EnableTrace(n, cap) before Run to record
// the lifecycle of every nth tuple and window into a ring of cap events.
var NewInstruments = obs.NewInstruments

// ServeObservability serves ins over HTTP on lis until stop is called:
// Prometheus text at /metrics, the JSON snapshot at /snapshot, the
// sampled lifecycle trace at /trace, and a liveness probe at /healthz.
// The caller binds lis, so its address is known before Run, and the
// server may outlive one run: give the same ins to each query (or to a
// ServeShard query) with ObserveWith.
var ServeObservability = obs.Serve

// ObserveWith directs the run's telemetry into caller-owned
// instruments, for embedding: the query counts into ins (one bundle per
// window worker, ins.Checkpoint() for a checkpointed run) and registers
// its probes there, and the caller snapshots it (ins.Snapshot), takes
// its ins.Summarize() or serves it (ServeObservability), during and
// after the run.
func (q *Query) ObserveWith(ins *Instruments) *Query {
	if ins == nil {
		return q.errf("nil instruments")
	}
	q.p.obsInto = ins
	return q
}

// CheckpointEvery enables barrier snapshots: the query's state
// is checkpointed into its spill store (under "<name>/ckpt") every
// tuples source tuples when tuples > 0 and/or every interval of
// wall-clock time when interval > 0. Pair with a durable SpillStore and
// Recover to survive crashes; a failed run leaves its last completed
// checkpoint intact.
func (q *Query) CheckpointEvery(tuples int64, interval time.Duration) *Query {
	if tuples < 0 || interval < 0 {
		return q.errf("negative checkpoint period")
	}
	if tuples == 0 && interval == 0 {
		return q.errf("checkpoint needs a tuple count or an interval")
	}
	q.p.ckptTuples = tuples
	q.p.ckptInterval = interval
	return q
}

// Recover resumes the query from the newest complete checkpoint found
// in its spill store: operator state is restored, secondary storage is
// rewound to the snapshot point, and the source is replayed from the
// recorded offset (it must support seeking — FromSlice does). With no
// usable checkpoint the run starts clean, discarding any partial state
// a crashed run left behind.
func (q *Query) Recover() *Query {
	q.p.ckptRecover = true
	return q
}

// Run executes the query to completion, invoking sink for every window
// result, and returns the run's telemetry summary: what the window
// workers of this process counted. Under Distribute this process builds
// none, so the Summary is empty (Workers: 0); each shard's telemetry is
// on the Instruments its ServeShard query was given with ObserveWith.
func (q *Query) Run(sink func(worker int, r Result)) (Summary, error) {
	p, err := q.compile()
	if err != nil {
		return Summary{}, err
	}
	name := p.worker.Name
	if p.source == nil {
		return Summary{}, fmt.Errorf("spear: %s: no source", name)
	}
	if sink == nil {
		return Summary{}, fmt.Errorf("spear: %s: nil sink", name)
	}
	plane, reg := p.runtime()
	ckptEnabled := p.ckptTuples > 0 || p.ckptInterval > 0 || p.ckptRecover

	// reg is the run's telemetry registry either way (the worker bundles
	// the Summary is computed from live there); ins is the same registry
	// when the run is observed and nil otherwise, which is the engine's
	// switch for its live probes. The adaptive controller is fed from
	// snapshots of it, so enabling it implies observing.
	var ins *obs.Instruments
	if p.obsInto != nil || p.control.SLO > 0 {
		ins = reg
		ins.SetSpillPlane(plane)
	}

	// The controller's cells are created before the manager factory runs
	// so each worker's Config carries its mailbox; every cell starts at
	// the configured budget.
	var cells []*control.Cell
	var ctrl *control.Controller
	if p.control.SLO > 0 {
		cells = make([]*control.Cell, p.par)
		for i := range cells {
			cells[i] = control.NewCell(p.worker.Budget)
		}
		ctrl = control.New(p.control, cells)
		ins.SetController(ctrl)
	}

	var hooks *spe.CheckpointHooks
	var coord *checkpoint.Coordinator
	if ckptEnabled {
		coord, err = checkpoint.NewCoordinator(checkpoint.Config{
			Store:       p.store,
			Namespace:   name + "/ckpt",
			Workers:     p.par,
			EveryTuples: p.ckptTuples,
			Interval:    p.ckptInterval,
			Metrics:     reg.Checkpoint(),
		})
		if err != nil {
			return Summary{}, fmt.Errorf("spear: %s: %w", name, err)
		}
		if p.ckptRecover {
			if _, err := coord.Recover(); err != nil {
				return Summary{}, fmt.Errorf("spear: %s: %w", name, err)
			}
		}
		hooks = coord.Hooks()
	}

	tp := spe.NewTopology(spe.Config{
		BatchSize:       p.batchSize,
		WatermarkPeriod: int64(p.wmPeriod),
		WatermarkLag:    int64(p.wmLag),
		Checkpoint:      hooks,
		FieldsSeed:      sample.DeriveSeed(p.worker.Seed, -1), // group→worker routing, rooted at the seed
		Obs:             ins,
	}).SetSpout(p.source)
	for _, fn := range p.maps {
		tp.AddMap(name+"/map", 0, fn)
	}
	tp.SetWindowed(name, p.par, p.fns.keyBy, p.managerFactory(plane, reg, ckptEnabled, cells))
	tp.SetSink(func(worker int, r core.Result) { sink(worker, r) })
	if len(p.nodes) > 0 {
		tp.SetFabric(p.newFabric(coord, ins))
	}

	// The controller's tick starts before the first tuple flows and takes
	// its last snapshot after the pipeline has drained.
	if ctrl != nil {
		defer ctrl.Start(ins)()
	}

	runErr := tp.Run()
	// Stop the spill plane's workers before returning (goroutine
	// hygiene) and surface any latched async-write error: a run whose
	// spills did not all land must not report success.
	if cerr := plane.Close(); cerr != nil && runErr == nil {
		runErr = fmt.Errorf("spear: %s: spill plane: %w", name, cerr)
	}
	if runErr != nil {
		return Summary{}, runErr
	}
	return reg.Summarize(), nil
}

// compile validates the query and applies its defaults, once, into the
// plan Run and ServeShard read. It is the only place either happens.
func (q *Query) compile() (plan, error) {
	p := q.p
	w := &p.worker
	switch {
	case len(q.errs) > 0:
		return p, errors.Join(q.errs...)
	case !q.haveSpec:
		return p, fmt.Errorf("spear: %s: no window", w.Name)
	case !q.haveAgg:
		return p, fmt.Errorf("spear: %s: no aggregate", w.Name)
	case p.control.SLO > 0 && len(p.nodes) > 0:
		return p, fmt.Errorf("spear: %s: LatencySLO does not compose with Distribute (the controller needs the in-process obs plane)", w.Name)
	case w.BudgetMax > 0 && p.control.SLO == 0 && w.Grouped:
		return p, fmt.Errorf("spear: %s: AdaptiveBudget without LatencySLO steers a scalar worker's budget only; a grouped one never reads it", w.Name)
	case w.Custom != "" && w.Backend == BackendIncremental:
		return p, fmt.Errorf("spear: %s: the incremental backend maintains non-holistic aggregates, and custom aggregate %s is holistic", w.Name, w.Custom)
	case w.BudgetMax > 0 && p.control.SLO == 0 && w.Backend != BackendSPEAr:
		return p, fmt.Errorf("spear: %s: AdaptiveBudget without LatencySLO steers a sample's budget; the %s backend keeps no sample", w.Name, w.Backend)
	}
	if w.Budget == 0 {
		// A sensible default: enough for a 10%/95% quantile per the
		// Hoeffding bound, with headroom.
		w.Budget = 1000
	}
	if p.store == nil {
		p.store = storage.NewMemStore()
	}
	switch {
	case w.Spec.Domain == window.CountDomain:
		p.wmPeriod = 0 // count windows close on arrival
	case p.wmPeriod == 0:
		p.wmPeriod = time.Duration(w.Spec.Slide)
	}
	if p.control.SLO > 0 {
		// AdaptiveBudget's bounds double as the controller's; the
		// per-window step itself is skipped while a cell is attached (one
		// budget owner at a time).
		p.control.Min, p.control.Max = w.BudgetMin, w.BudgetMax
		if p.control.Max == 0 {
			p.control.Min, p.control.Max = max(1, w.Budget/16), w.Budget
		}
	}
	return p, nil
}

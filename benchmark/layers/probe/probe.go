// Package probe is what the layer probes share: flag parsing, the
// workload's own input, a span-recording store, and the JSON they
// print. It imports nothing of the program but the storage interface,
// so that it keeps building when a layer's package is refactored away;
// each probe under benchmark/layers/<layer>/ is a package of its own
// behind the layerprobe build tag, built and run separately by the
// harness, and a probe that no longer compiles costs that layer's
// numbers and nothing else.
package probe

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"spear"
	"spear/benchmark/loadgen"
	"spear/benchmark/span"
)

// Env is one probe invocation: the workload it replays and the spans
// it records.
type Env struct {
	Workload string
	Seed     int64
	Shape    loadgen.Shape
	// Input is the first -tuples tuples of the workload's replay, in
	// arrival order with timestamps already shifted per cycle.
	Input []spear.Tuple
	Rec   *span.Recorder
	// StoreDelay is the per-call latency of the workload's secondary
	// storage; the stores NewStore returns sleep it in every call.
	StoreDelay time.Duration
	// Parent is the span in progress: the parent of the next Span and
	// of whatever a Store records meanwhile, from any goroutine.
	Parent atomic.Int64
}

// Output is what a probe prints: its metrics by name and its spans.
type Output struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span.Span        `json:"spans"`
}

// Main runs a probe: parse the flags, generate the input, call run,
// print the output as one JSON object.
func Main(run func(e *Env) (map[string]float64, error)) {
	workload := flag.String("workload", "dec_median", "workload whose input to replay")
	seed := flag.Int64("seed", 1, "input seed")
	scale := flag.Float64("scale", 1, "input block scale")
	tuples := flag.Int("tuples", 1_000_000, "tuples to replay")
	delay := flag.Duration("store-delay", 0, "latency of every store call (the workload's secondary storage)")
	flag.Parse()

	block, sh, err := loadgen.Input(*workload, *seed, *scale)
	if err == nil {
		e := &Env{Workload: *workload, Seed: *seed, Shape: sh, Rec: span.NewRecorder(), StoreDelay: *delay}
		cycles := (*tuples + len(block.Tuples) - 1) / len(block.Tuples)
		src := loadgen.NewReplay(block, cycles, 0)
		e.Input = make([]spear.Tuple, *tuples)
		for i := range e.Input {
			e.Input[i], _ = src.Next()
		}
		var metrics map[string]float64
		if metrics, err = run(e); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(Output{Metrics: metrics, Spans: e.Rec.Spans()})
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

// Value and Key extract the workload's value and grouping key. A
// workload without a key field gets one of 64 synthetic keys from the
// value, so the grouped paths can be probed on any input.
func (e *Env) Value(t spear.Tuple) float64 { return t.Vals[e.Shape.ValueField].AsFloat() }

var synthetic = func() (keys [64]string) {
	for i := range keys {
		keys[i] = fmt.Sprintf("g%02d", i)
	}
	return keys
}()

func (e *Env) Key(t spear.Tuple) string {
	if e.Shape.KeyField >= 0 {
		return t.Vals[e.Shape.KeyField].AsString()
	}
	return synthetic[int(e.Value(t))&63]
}

// Runs calls fn for each consecutive run of at most 64 tuples of the
// input — the engine's micro-batch.
func (e *Env) Runs(fn func(run []spear.Tuple)) { chunks(e.Input, 64, fn) }

// Blocks calls fn for each consecutive block of at most 1024 tuples:
// the granularity probes record spans at, so that a trace stays a few
// thousand spans per layer.
func (e *Env) Blocks(fn func(block []spear.Tuple)) { chunks(e.Input, 1024, fn) }

func chunks(in []spear.Tuple, n int, fn func([]spear.Tuple)) {
	for i := 0; i < len(in); i += n {
		fn(in[i:min(i+n, len(in))])
	}
}

// Span runs fn inside a span called name whose parent is e.Parent, with
// itself as the parent of whatever the Store records meanwhile.
func (e *Env) Span(name string, fn func()) {
	outer := e.Parent.Load()
	sp := e.Rec.Begin(name, outer, -1)
	e.Parent.Store(sp.ID())
	fn()
	e.Parent.Store(outer)
	sp.End()
}

// Drive feeds the input to a window manager the way a windowed worker
// does: runs of at most 64 tuples through ingest, and fire(wm) whenever
// the watermark — event time minus the workload's lag, floored to a
// slide — advances, plus a closing fire at the end of the input. The
// ingest calls of each block of up to 1024 tuples share one span called
// name (none when name is empty).
func (e *Env) Drive(name string, ingest func(run []spear.Tuple) error, fire func(wm int64) error) error {
	sh := e.Shape
	last := int64(-1 << 62)
	start := 0
	flush := func(end int) (err error) {
		for err == nil && start < end {
			block := e.Input[start:min(start+1024, end)]
			start += len(block)
			feed := func() {
				chunks(block, 64, func(run []spear.Tuple) {
					if err == nil {
						err = ingest(run)
					}
				})
			}
			if name == "" {
				feed()
			} else {
				e.Span(name, feed)
			}
		}
		return err
	}
	for i, t := range e.Input {
		b := t.Ts - sh.WatermarkLag
		b -= ((b % sh.Slide) + sh.Slide) % sh.Slide // floor to a slide boundary
		if b <= last {
			continue
		}
		if err := flush(i); err != nil {
			return err
		}
		if last > -1<<62 {
			if err := fire(b); err != nil {
				return err
			}
		}
		last = b
	}
	if err := flush(len(e.Input)); err != nil {
		return err
	}
	return fire(1<<63 - 1)
}

// PerTuple is the self time of the spans called name spread over the
// probe's input, in nanoseconds per tuple.
func (e *Env) PerTuple(name string) float64 {
	return float64(e.Totals()[name].SelfNanos) / float64(len(e.Input))
}

// PerSpan is the mean self time of the spans called name, in
// microseconds (0 when there is none).
func (e *Env) PerSpan(name string) float64 {
	t := e.Totals()[name]
	if t.Count == 0 {
		return 0
	}
	return float64(t.SelfNanos) / 1e3 / float64(t.Count)
}

// Totals folds everything recorded so far by span name.
func (e *Env) Totals() map[string]span.Total { return span.Totals(e.Rec.Spans()) }

// NewStore returns an in-memory store with the workload's latency whose
// calls become child spans of e.Parent.
func (e *Env) NewStore() *Store { return NewStore(e.StoreDelay, 0, e.Rec, &e.Parent) }

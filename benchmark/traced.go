package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spear/benchmark/loadgen"
	"spear/benchmark/span"
)

// traced is the traced run, separate from the timed one: short passes
// over a tenth of the saturated input — untraced, traced, instrumented,
// with the TCP fabric flipped, paced — then the layer probes. It
// reports every per-layer metric and writes the spans to
// trace.<workload>.json.
func (w *workload) traced(o options) (*workloadResult, error) {
	p, err := w.prepare(o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	res := w.newResult(o, "traced", p)
	cycles := p.cycles(w.satRate * o.seconds * satShare * tracedShare)
	pass := func(name string, ro runOpts) (*runResult, error) {
		r, err := p.run(ro)
		if err == nil {
			res.absorb(name, r)
		}
		return r, err
	}

	base, err := pass("untraced", runOpts{cycles: cycles, procs: w.procs})
	if err != nil {
		return nil, err
	}
	rec := span.NewRecorder()
	traced, err := pass("traced", runOpts{cycles: cycles, procs: w.procs, rec: rec})
	if err != nil {
		return nil, err
	}
	observed, err := pass("instrumented", runOpts{cycles: cycles, procs: w.procs, instruments: true})
	if err != nil {
		return nil, err
	}
	// The transport counters come from whichever pass crosses TCP; its
	// instruments are on only when it is not also the overhead baseline.
	flipped, err := pass("tcp_flipped", runOpts{cycles: cycles, procs: w.procs, flipTCP: true, instruments: !w.tcp})
	if err != nil {
		return nil, err
	}
	paced, err := pass("paced", runOpts{
		cycles: p.cycles(w.pacedRate * o.seconds * pacedShare * tracedShare), rate: w.pacedRate,
	})
	if err != nil {
		return nil, err
	}

	overTCP, inProc, wire := base, flipped, observed
	if !w.tcp {
		overTCP, inProc, wire = flipped, base, flipped
	}
	st := traced.store
	// Every per-layer metric starts out null; the harness's own passes
	// and then the probes fill in what they measured.
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{Unit: m.unit}
	}
	set := func(name string, v float64) {
		if m, listed := res.Metrics[name]; listed {
			res.Metrics[name] = val(v, m.Unit)
		} else {
			res.Diagnostics[name] = v // a probe's extra
		}
	}
	set("loadgen.next_ns_per_tuple", sourceCost(p))
	set("loadgen.lag_p99_ms", quantile(lagsMs(paced), 0.99))
	set("loadgen.latency_p99_ms", quantile(paced.chk.latencies(paced.src.Due), 0.99))
	set("core.mem_bytes_peak", maxOver(observed.snapshots, "worker_metrics", "mem_bytes_peak"))
	set("core.accelerated_frac", frac(float64(base.chk.accelerated), float64(base.chk.results)))
	set("core.contract_coverage", base.chk.coverage())
	set("storage.store_calls", float64(st.Stores.Load()))
	set("storage.get_calls", float64(st.Gets.Load()))
	set("storage.store_us_p50", median(st.StoreMicros()))
	set("storage.get_us_p50", median(st.GetMicros()))
	set("storage.bytes_stored_per_tuple", frac(float64(st.BytesStored.Load()), float64(traced.tuples)))
	set("storage.tuples_fetched_per_window", frac(float64(st.TuplesFetched.Load()), float64(traced.expected)))
	hits, misses := sumOver(observed.snapshots, "spill_plane", "cache_hits"), sumOver(observed.snapshots, "spill_plane", "cache_misses")
	set("spill.cache_hit_frac", frac(hits, hits+misses))
	set("spill.prefetch_hit_frac", frac(sumOver(observed.snapshots, "spill_plane", "prefetch_hits"), sumOver(observed.snapshots, "spill_plane", "prefetch_issued")))
	// The source's own links carry the data frames; the shard servers'
	// carry results and credits back.
	set("transport.bytes_per_tuple", frac(sumOver(wire.snapshots[:1], "transport", "tx_bytes"), float64(wire.tuples)))
	set("transport.frames_per_ktuple", frac(sumOver(wire.snapshots[:1], "transport", "tx_frames"), float64(wire.tuples)/1e3))
	set("transport.reconnects", sumOver(wire.snapshots, "transport", "reconnects"))
	set("transport.tcp_overhead_ratio", frac(inProc.tuplesPerSec(), overTCP.tuplesPerSec()))
	set("obs.overhead_frac", 1-frac(observed.tuplesPerSec(), base.tuplesPerSec()))
	set("obs.snapshot_us", observed.snapUs)
	set("trace.overhead_frac", 1-frac(traced.tuplesPerSec(), base.tuplesPerSec()))

	probes, notes := runProbes(o, w, min(int(traced.tuples), probeTuples))
	res.Notes = append(res.Notes, notes...)
	for _, out := range probes {
		for name, v := range out.Metrics {
			set(name, v)
		}
	}

	// The trace: the pipeline's spans and each probe's, and the layers
	// block aggregated from them.
	trace := struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Pipeline []span.Span            `json:"pipeline"`
		Probes   map[string][]span.Span `json:"probes"`
	}{w.name, o.seed, rec.Spans(), map[string][]span.Span{}}
	res.Layers = span.Totals(trace.Pipeline)
	for layer, out := range probes {
		trace.Probes[layer] = out.Spans
		for name, t := range span.Totals(out.Spans) {
			res.Layers["probe:"+name] = t
		}
	}
	// Tens of thousands of spans: written compactly, one JSON value.
	blob, err := json.Marshal(trace)
	if err == nil {
		err = os.WriteFile(filepath.Join(o.out, fmt.Sprintf("trace.%s.json", w.name)), blob, 0o644)
	}
	if err != nil {
		return nil, err
	}
	return res, res.save(o)
}

// sourceCost is what one Next of the replaying source costs with no
// engine behind it, in nanoseconds: what to subtract from the engine's
// source-side numbers.
func sourceCost(p *prepared) float64 {
	src := loadgen.NewReplay(p.block, 2, 0)
	t0 := time.Now()
	for _, ok := src.Next(); ok; _, ok = src.Next() {
	}
	return float64(time.Since(t0)) / float64(src.Total())
}

// The obs snapshots are read through their JSON form (see run): these
// helpers walk section → field, where a section is an object or a list
// of objects, and treat anything missing as zero.
func fieldsOf(snaps []map[string]any, section, field string) []float64 {
	var out []float64
	for _, s := range snaps {
		var objs []any
		switch sec := s[section].(type) {
		case []any:
			objs = sec
		case map[string]any:
			objs = []any{sec}
		}
		for _, o := range objs {
			if m, ok := o.(map[string]any); ok {
				if v, ok := m[field].(float64); ok {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

func sumOver(snaps []map[string]any, section, field string) (sum float64) {
	for _, v := range fieldsOf(snaps, section, field) {
		sum += v
	}
	return sum
}

func maxOver(snaps []map[string]any, section, field string) (m float64) {
	for _, v := range fieldsOf(snaps, section, field) {
		m = max(m, v)
	}
	return m
}

package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"spear/internal/agg"
	"spear/internal/core"
	"spear/internal/obs"
	"spear/internal/sample"
	"spear/internal/spe"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// Pipeline measures the raw dataflow substrate — spout → stateless map
// → windowed mean → sink over shuffle partitioning — with per-tuple
// transfer (BatchSize 1) against the micro-batched default (BatchSize
// 64), at 1/4/8 workers. It is the perf gate for the vectorized
// dataflow: the batch=64 rows must be ≥2x the batch=1 rows at the
// 4-worker point, and steady-state allocations must stay ≤1 per tuple.
//
// Each configuration is timed with testing.Benchmark, so ns/tuple and
// allocs/tuple come from the standard benchmark machinery rather than a
// single hand-rolled wall-clock pass. When Options.BenchJSON is set the
// rows are also written there as JSON (make bench-pipeline checks in
// BENCH_pipeline.json at the repo root).
func Pipeline(opt Options) ([]*Table, error) {
	const tuples = 200_000
	// One contiguous Value array backs every tuple so the input is a
	// handful of heap objects rather than 200k — the benchmark measures
	// the dataflow, not the GC tracing the fixture.
	in := make([]tuple.Tuple, tuples)
	vals := make([]tuple.Value, tuples)
	for i := range in {
		vals[i] = tuple.Float(float64(i & 255))
		in[i] = tuple.Tuple{Ts: int64(i), Vals: vals[i : i+1 : i+1]}
	}

	type row struct {
		Par        int     `json:"par"`
		Batch      int     `json:"batch"`
		TuplesPerS float64 `json:"tuples_per_sec"`
		NsPerTuple float64 `json:"ns_per_tuple"`
		AllocsPerT float64 `json:"allocs_per_tuple"`
		BytesPerT  float64 `json:"bytes_per_tuple"`
		SpeedupVs1 float64 `json:"speedup_vs_batch1"`
	}

	factory := func(wi int) (core.Manager, error) {
		return core.NewScalarManager(core.Config{
			Spec:         window.Tumbling(time.Duration(10_000)),
			Value:        tuple.FieldFloat(0),
			Agg:          agg.Func{Op: agg.Mean},
			Epsilon:      epsilon,
			Confidence:   confidence,
			BudgetTuples: 100,
			ArchiveChunk: 2048,
			Store:        storage.NewMemStore(),
			Key:          fmt.Sprintf("pipe/w%d", wi),
			Seed:         sample.DeriveSeed(opt.Seed, int64(wi)),
		})
	}

	// Each configuration is measured several times and the fastest
	// repetition wins: scheduler and neighbor noise only ever slows a
	// run down, so the minimum is the best estimate of the true cost
	// (the same reasoning as `go test -count N` + benchstat's min).
	const reps = 3
	run := func(par, batch int) testing.BenchmarkResult {
		var best testing.BenchmarkResult
		for r := 0; r < reps; r++ {
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// With -observe/-serve the run carries the full live
					// observability plane: fresh instruments, a ticking
					// reporter, and (with an address) the HTTP endpoint —
					// so this experiment doubles as the overhead gate.
					var ins *obs.Instruments
					var rep *obs.Reporter
					var srv *obs.Server
					if opt.observed() {
						ins = obs.NewInstruments()
						rep = obs.NewReporter(ins, 0)
						rep.Start()
						if opt.ObserveAddr != "" {
							srv = obs.NewServer(ins, rep)
							if err := srv.Start(opt.ObserveAddr); err != nil {
								b.Fatal(err)
							}
						}
					}
					tp := spe.NewTopology(spe.Config{
						WatermarkPeriod: 10_000,
						BatchSize:       batch,
						Obs:             ins,
					}).
						SetSpout(spe.NewSliceSpout(in)).
						AddMap("annotate", par, func(t tuple.Tuple) (tuple.Tuple, bool) { return t, true }).
						SetWindowed("mean", par, nil, factory).
						SetSink(func(int, core.Result) {})
					err := tp.Run()
					if srv != nil {
						srv.Stop()
					}
					if rep != nil {
						rep.Stop()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			if r == 0 || res.NsPerOp() < best.NsPerOp() {
				best = res
			}
		}
		return best
	}

	t := &Table{
		Title: "Pipeline: micro-batched dataflow vs per-tuple transfer",
		Header: []string{"workers", "batch", "Mtuples/s", "ns/tuple",
			"allocs/tuple", "B/tuple", "speedup"},
	}
	var rows []row
	for _, par := range []int{1, 4, 8} {
		var base float64 // ns/tuple at batch=1, this par
		for _, batch := range []int{1, 64} {
			res := run(par, batch)
			nsPerTuple := float64(res.NsPerOp()) / tuples
			r := row{
				Par:        par,
				Batch:      batch,
				TuplesPerS: 1e9 / nsPerTuple,
				NsPerTuple: nsPerTuple,
				AllocsPerT: float64(res.AllocsPerOp()) / tuples,
				BytesPerT:  float64(res.AllocedBytesPerOp()) / tuples,
				SpeedupVs1: 1,
			}
			if batch == 1 {
				base = nsPerTuple
			} else if nsPerTuple > 0 {
				r.SpeedupVs1 = base / nsPerTuple
			}
			rows = append(rows, r)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(par), fmt.Sprint(batch),
				fmt.Sprintf("%.2f", r.TuplesPerS/1e6),
				fmt.Sprintf("%.0f", r.NsPerTuple),
				fmt.Sprintf("%.3f", r.AllocsPerT),
				fmt.Sprintf("%.1f", r.BytesPerT),
				fmt.Sprintf("%.2fx", r.SpeedupVs1),
			})
		}
	}
	t.Notes = append(t.Notes,
		"target: batch=64 ≥2x batch=1 at 4 workers; steady-state allocs/tuple ≤1",
		fmt.Sprintf("stream: %d tuples, tumbling window of 10k ticks, shuffle partitioning", tuples),
	)
	if opt.observed() {
		t.Notes = append(t.Notes, "live observability was ON (instruments + periodic reporter); compare against an unobserved run for overhead")
	}

	if opt.BenchJSON != "" {
		blob, err := json.MarshalIndent(struct {
			Experiment string `json:"experiment"`
			Tuples     int    `json:"tuples"`
			Rows       []row  `json:"rows"`
		}{"pipeline", tuples, rows}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(opt.BenchJSON, append(blob, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("writing %s: %w", opt.BenchJSON, err)
		}
		t.Notes = append(t.Notes, "json written to "+opt.BenchJSON)
	}
	return []*Table{t}, nil
}

package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"spear"
	"spear/internal/window"
)

// Columnar measures the typed-column fast lane against the row batch
// path on an aggregate-heavy ETL pipeline: source → seven stateless
// stages (project, scale, filter, clamp, floor, re-bias, fold) →
// windowed SPEAr sum over tumbling 10k-tick windows → sink, at
// parallelism 1/4/8 with the default micro-batch of 64. The columnar
// rows run the same query with
// .Columnar(0): the seven map stages fuse into a single per-batch kernel
// at the spout (selection vectors, no intermediate channel hops) and
// survivors ship to the window workers as pooled column batches,
// ingested through the OnColumnBatch kernels instead of per-tuple Value
// unboxing.
//
// The acceptance gate is twofold and checked in-run per configuration.
// Identity: at parallelism 1 every columnar run must reproduce the row
// run bit-for-bit per worker — values AND Mode per window. At
// parallelism > 1 the map stages make tuple→worker routing depend on
// goroutine scheduling (the row path is not per-worker deterministic
// even against itself), so the gate compares what routing cannot
// change: per window, the result count, the total tuple count, the
// exact global sum, and the Mode multiset. The stream's values are
// small integers, so every sum is an exact float64 and the comparison
// is bit-sound. Throughput: columnar must be ≥2x the row path at the
// 4-worker point (the number BENCH_columnar.json records as
// speedup_vs_row).
//
// With Options.BenchJSON set the rows are also written as JSON (make
// bench-columnar checks in BENCH_columnar.json at the repo root).
func Columnar(opt Options) ([]*Table, error) {
	const tuples = 1_000_000
	in := make([]spear.Tuple, tuples)
	vals := make([]spear.Value, tuples)
	for i := range in {
		// Integral values keep float sums order-independent (every
		// partial sum is an exact integer far below 2^53), so the
		// identity gate holds at stage parallelism > 1 too.
		vals[i] = spear.Float(float64(i & 255))
		in[i] = spear.Tuple{Ts: int64(i), Vals: vals[i : i+1 : i+1]}
	}

	build := func(par int, columnar bool) *spear.Query {
		// A seven-stage ETL chain ahead of the windowed aggregate, the
		// shape fusion targets: stage one projects a fresh tuple (the
		// one unavoidable per-tuple allocation), the rest rewrite the
		// owned measure in place or filter. On the row path every stage
		// is a goroutine hop — a tuple copied into the next run,
		// and a channel synchronization per micro-batch per stage; the
		// fused chain runs the same seven closures back to back over one
		// buffered batch.
		q := spear.NewQuery("colbench").
			Source(spear.FromSlice(in)).
			Map(func(t spear.Tuple) (spear.Tuple, bool) {
				// Project: fresh tuple, shifted measure (stays integral).
				return spear.NewTuple(t.Ts, spear.Float(t.Vals[0].AsFloat()+1)), true
			}).
			Map(func(t spear.Tuple) (spear.Tuple, bool) {
				// Scale in place: the Vals slice is owned from stage one on.
				t.Vals[0] = spear.Float(t.Vals[0].AsFloat() * 2)
				return t, true
			}).
			Map(func(t spear.Tuple) (spear.Tuple, bool) {
				// Filter: drop ~1/8 of the stream, decided per tuple.
				return t, int64(t.Vals[0].AsFloat())&15 != 0
			}).
			Map(func(t spear.Tuple) (spear.Tuple, bool) {
				// Clamp outliers (stays integral).
				if v := t.Vals[0].AsFloat(); v > 500 {
					t.Vals[0] = spear.Float(500)
				}
				return t, true
			}).
			Map(func(t spear.Tuple) (spear.Tuple, bool) {
				// Floor (stays integral).
				if v := t.Vals[0].AsFloat(); v < 8 {
					t.Vals[0] = spear.Float(8)
				}
				return t, true
			}).
			Map(func(t spear.Tuple) (spear.Tuple, bool) {
				// Re-bias (stays integral).
				t.Vals[0] = spear.Float(t.Vals[0].AsFloat() + 3)
				return t, true
			}).
			Map(func(t spear.Tuple) (spear.Tuple, bool) {
				// Fold the tail back into a bounded range (stays
				// integral).
				if v := t.Vals[0].AsFloat(); v > 256 {
					t.Vals[0] = spear.Float(v - 256)
				}
				return t, true
			}).
			TumblingWindow(time.Duration(10_000)).
			Sum(func(t spear.Tuple) float64 { return t.Vals[0].AsFloat() }).
			Error(epsilon, confidence).
			BudgetTuples(100).
			BatchSize(64).
			Parallelism(par).
			Seed(opt.Seed)
		if columnar {
			q.Columnar(0)
		}
		return opt.observe(q)
	}

	// Best of three wall-clock repetitions per configuration (noise
	// only slows a run down); every repetition — row and columnar —
	// must reproduce the first row run exactly under the gate for its
	// parallelism, so the identity gate also covers repetition-to-
	// repetition determinism.
	const reps = 3
	run := func(par int, columnar bool, ref *runOut) (*runOut, error) {
		label := fmt.Sprintf("columnar-%v-p%d", columnar, par)
		gate := sameRunResults
		if par > 1 {
			gate = sameGlobalResults
		}
		var best *runOut
		for r := 0; r < reps; r++ {
			out, err := runQuery(label, build(par, columnar))
			if err != nil {
				return nil, err
			}
			if ref != nil {
				if err := gate(ref, out); err != nil {
					return nil, fmt.Errorf("columnar: %s diverged from row path: %w", label, err)
				}
			} else {
				ref = out
			}
			if best == nil || out.wall < best.wall {
				best = out
			}
		}
		return best, nil
	}

	type row struct {
		Par          int     `json:"par"`
		Path         string  `json:"path"`
		WallS        float64 `json:"wall_s"`
		TuplesPerS   float64 `json:"tuples_per_sec"`
		SpeedupVsRow float64 `json:"speedup_vs_row"`
	}

	t := &Table{
		Title:  "Columnar: typed column batches + operator fusion vs the row batch path (identical results enforced)",
		Header: []string{"par", "path", "wall(s)", "Mtuples/s", "speedup"},
	}
	var rows []row
	for _, par := range []int{1, 4, 8} {
		rowOut, err := run(par, false, nil)
		if err != nil {
			return nil, err
		}
		colOut, err := run(par, true, rowOut)
		if err != nil {
			return nil, err
		}
		for _, o := range []struct {
			path string
			out  *runOut
		}{{"row", rowOut}, {"columnar", colOut}} {
			r := row{
				Par:          par,
				Path:         o.path,
				WallS:        o.out.wall.Seconds(),
				TuplesPerS:   tuples / o.out.wall.Seconds(),
				SpeedupVsRow: 1,
			}
			if o.path == "columnar" && colOut.wall > 0 {
				r.SpeedupVsRow = float64(rowOut.wall) / float64(colOut.wall)
			}
			rows = append(rows, r)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(par), o.path,
				fmt.Sprintf("%.3f", r.WallS),
				fmt.Sprintf("%.2f", r.TuplesPerS/1e6),
				fmt.Sprintf("%.2fx", r.SpeedupVsRow),
			})
		}
	}
	t.Notes = append(t.Notes,
		"acceptance: columnar ≥2x row throughput at par 4; identical results (values and Mode) verified in-run per configuration",
		fmt.Sprintf("stream: %d tuples, seven-stage map/filter chain → sum over tumbling 10k-tick windows, batch 64, best of %d", tuples, reps),
	)

	if opt.BenchJSON != "" {
		blob, err := json.MarshalIndent(struct {
			Experiment string `json:"experiment"`
			Tuples     int    `json:"tuples"`
			Rows       []row  `json:"rows"`
		}{"columnar", tuples, rows}, "", "  ")
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

// globalWin is one window's routing-independent footprint: how many
// worker results it produced, the total tuple count and global sum
// across them, and the multiset of per-worker Modes.
type globalWin struct {
	results int
	n       int64
	sum     float64
	modes   map[string]int
}

// foldGlobal collapses a run's per-worker results per window.
func foldGlobal(o *runOut) map[window.ID]*globalWin {
	out := map[window.ID]*globalWin{}
	for k, r := range o.results {
		g := out[k.id]
		if g == nil {
			g = &globalWin{modes: map[string]int{}}
			out[k.id] = g
		}
		g.results++
		g.n += r.N
		g.sum += r.Scalar
		g.modes[r.Mode.String()]++
	}
	return out
}

// sameGlobalResults requires b to reproduce a's per-window global
// footprint exactly. This is the strongest identity the row path
// itself sustains at stage parallelism > 1, where tuple→worker routing
// depends on goroutine scheduling: whatever the routing, the window's
// result count, total N, exact sum (integral values — no rounding),
// and Mode multiset must not move.
func sameGlobalResults(a, b *runOut) error {
	ga, gb := foldGlobal(a), foldGlobal(b)
	if len(ga) != len(gb) {
		return fmt.Errorf("window count %d != %d", len(gb), len(ga))
	}
	for id, wa := range ga {
		wb, ok := gb[id]
		if !ok {
			return fmt.Errorf("window %d missing", id)
		}
		if wa.results != wb.results || wa.n != wb.n {
			return fmt.Errorf("window %d results/N %d/%d != %d/%d", id, wb.results, wb.n, wa.results, wa.n)
		}
		if math.Float64bits(wa.sum) != math.Float64bits(wb.sum) {
			return fmt.Errorf("window %d global sum %v != %v", id, wb.sum, wa.sum)
		}
		for m, c := range wa.modes {
			if wb.modes[m] != c {
				return fmt.Errorf("window %d mode %s count %d != %d", id, m, wb.modes[m], c)
			}
		}
	}
	return nil
}

//go:build layerprobe

// Probe of the core layer: the three ingest paths of the window
// managers and the cost of firing a window sampled, exact and grouped.
// Store calls are child spans of the ingest and fire spans, so every
// number here is core's self time with the archive's removed.
package main

import (
	"spear/benchmark/layers/probe"
	"spear/internal/agg"
	"spear/internal/col"
	"spear/internal/core"
	"spear/internal/tuple"
	"spear/internal/window"
)

func main() {
	probe.Main(func(e *probe.Env) (map[string]float64, error) {
		f := agg.Func{Op: agg.Mean}
		if e.Workload == "dec_median" {
			f = agg.Median()
		}
		config := func(key string, epsilon float64) core.Config {
			return core.Config{
				Spec:  window.Spec{Domain: window.TimeDomain, Range: e.Shape.Range, Slide: e.Shape.Slide},
				Agg:   f,
				Value: tuple.FieldFloat(e.Shape.ValueField),
				// Without the incremental path every window goes through
				// the accuracy check, whatever the aggregate.
				DisableIncremental: true,
				Epsilon:            epsilon, Confidence: 0.95, BudgetTuples: 200,
				Store: e.NewStore(), Key: "probe/" + key, Seed: e.Seed,
			}
		}
		// fire times one watermark round and books it under the mode of
		// the windows it produced.
		fire := func(m core.Manager, name string) func(int64) error {
			return func(wm int64) (err error) {
				var rs []core.Result
				sp := e.Rec.Begin("core.fire", 0, -1)
				e.Parent.Store(sp.ID())
				rs, err = m.OnWatermark(wm)
				e.Parent.Store(0)
				if len(rs) == 0 {
					return err // nothing fired: not a fire
				}
				sp.EndAs(name + rs[0].Mode.String())
				return err
			}
		}
		// Scalar, row path, at the workload's ε: mostly sampled fires.
		scalar, err := core.NewScalarManager(config("scalar", 0.10))
		if err != nil {
			return nil, err
		}
		err = e.Drive("core.scalar_ingest", func(run []tuple.Tuple) error {
			_, err := scalar.OnTupleBatch(run)
			return err
		}, fire(scalar, "core.fire_"))
		if err != nil {
			return nil, err
		}

		// The same with an ε no sample meets: every fire is exact.
		strict, err := core.NewScalarManager(config("strict", 1e-6))
		if err != nil {
			return nil, err
		}
		err = e.Drive("", func(run []tuple.Tuple) error {
			_, err := strict.OnTupleBatch(run)
			return err
		}, fire(strict, "core.fire_"))
		if err != nil {
			return nil, err
		}

		// Scalar, columnar path; the pivot is the col layer's cost.
		ccfg := config("column", 0.10)
		ccfg.Columnar = core.ColumnarSpec{Enabled: true, ValueField: e.Shape.ValueField}
		column, err := core.NewScalarManager(ccfg)
		if err != nil {
			return nil, err
		}
		cb := col.Get()
		defer col.Put(cb)
		err = e.Drive("core.column_ingest", func(run []tuple.Tuple) error {
			e.Span("col.pivot", func() { cb.SetRows(run) })
			_, err := column.OnColumnBatch(cb)
			return err
		}, func(wm int64) error { _, err := column.OnWatermark(wm); return err })
		if err != nil {
			return nil, err
		}

		// Grouped, unknown groups, the workload's key.
		gcfg := config("grouped", 0.10)
		gcfg.KeyBy = e.Key
		gcfg.DisableIncremental = false
		gcfg.BudgetTuples = 4000
		grouped, err := core.NewGroupedManager(gcfg)
		if err != nil {
			return nil, err
		}
		err = e.Drive("core.grouped_ingest", func(run []tuple.Tuple) error {
			_, err := grouped.OnTupleBatch(run)
			return err
		}, fire(grouped, "core.grouped_fire_"))
		if err != nil {
			return nil, err
		}

		t := e.Totals()
		groupedFire := t["core.grouped_fire_incremental"]
		for _, mode := range []string{"sampled", "exact"} {
			groupedFire.Count += t["core.grouped_fire_"+mode].Count
			groupedFire.SelfNanos += t["core.grouped_fire_"+mode].SelfNanos
		}
		return map[string]float64{
			"core.scalar_ingest_ns_per_tuple":  e.PerTuple("core.scalar_ingest"),
			"core.grouped_ingest_ns_per_tuple": e.PerTuple("core.grouped_ingest"),
			"core.column_ingest_ns_per_tuple":  e.PerTuple("core.column_ingest"),
			"core.fire_sampled_us":             e.PerSpan("core.fire_sampled"),
			"core.fire_exact_us":               e.PerSpan("core.fire_exact"),
			"core.grouped_fire_us":             float64(groupedFire.SelfNanos) / 1e3 / float64(max(groupedFire.Count, 1)),
		}, nil
	})
}

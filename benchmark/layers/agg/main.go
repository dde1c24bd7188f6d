//go:build layerprobe

// Probe of the agg layer: the exact aggregate over a whole window (what
// the fallback costs) and the estimate from a budget-sized sample (what
// the accelerated path costs), for the workload's aggregate.
package main

import (
	"spear/benchmark/layers/probe"
	"spear/internal/agg"
)

func main() {
	probe.Main(func(e *probe.Env) (map[string]float64, error) {
		f := agg.Func{Op: agg.Mean}
		if e.Workload == "dec_median" {
			f = agg.Median()
		}
		// Tumble the input into windows of the workload's range.
		var vals []float64
		end := e.Input[0].Ts + e.Shape.Range
		fire := func() {
			if len(vals) == 0 {
				return
			}
			e.Span("agg.exact", func() { f.Compute(vals) })
			e.Span("agg.estimate", func() { f.Estimate(vals[:min(200, len(vals))], int64(len(vals))) })
			vals = vals[:0]
		}
		for _, t := range e.Input {
			if t.Ts >= end {
				fire()
				end += e.Shape.Range
			}
			vals = append(vals, e.Value(t))
		}
		fire()
		return map[string]float64{
			"agg.exact_us_per_window":    e.PerSpan("agg.exact"),
			"agg.estimate_us_per_window": e.PerSpan("agg.estimate"),
		}, nil
	})
}

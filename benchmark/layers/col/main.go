//go:build layerprobe

// Probe of the col layer: pivoting row micro-batches into typed
// columns and back.
package main

import (
	"spear/benchmark/layers/probe"
	"spear/internal/col"
	"spear/internal/tuple"
)

func main() {
	probe.Main(func(e *probe.Env) (map[string]float64, error) {
		cb := col.Get()
		defer col.Put(cb)
		var rows []tuple.Tuple
		e.Blocks(func(block []tuple.Tuple) {
			e.Span("col.pivot", func() { cb.SetRows(block) })
			e.Span("col.unpivot", func() { rows = cb.ToRows(rows) })
		})
		return map[string]float64{
			"col.pivot_ns_per_tuple":   e.PerTuple("col.pivot"),
			"col.unpivot_ns_per_tuple": e.PerTuple("col.unpivot"),
		}, nil
	})
}

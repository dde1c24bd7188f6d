//go:build layerprobe

// Probe of the sample layer: the reservoir a scalar window keeps and
// the per-group reservoirs of a grouped one.
package main

import (
	"spear/benchmark/layers/probe"
	"spear/internal/sample"
	"spear/internal/tuple"
)

func main() {
	probe.Main(func(e *probe.Env) (map[string]float64, error) {
		res := sample.NewReservoir(200, e.Seed, sample.AlgoL)
		// One set of group reservoirs per window's worth of tuples, so
		// the group count stays what a window sees.
		span := e.Input[len(e.Input)-1].Ts - e.Input[0].Ts + 1
		perWindow := max(1024, int(int64(len(e.Input))*e.Shape.Range/span))
		var gr *sample.GroupReservoirs
		seen := perWindow
		e.Blocks(func(block []tuple.Tuple) {
			e.Span("sample.reservoir", func() {
				for _, t := range block {
					res.Add(e.Value(t))
				}
			})
			if seen += len(block); seen >= perWindow {
				gr, seen = sample.NewGroupReservoirs(4, e.Seed+int64(seen), sample.AlgoL), 0
			}
			e.Span("sample.grouped", func() {
				for _, t := range block {
					gr.Add(e.Key(t), e.Value(t))
				}
			})
		})
		return map[string]float64{
			"sample.reservoir_ns_per_tuple": e.PerTuple("sample.reservoir"),
			"sample.grouped_ns_per_tuple":   e.PerTuple("sample.grouped"),
		}, nil
	})
}

//go:build layerprobe

// Probe of the stats layer: the running moments every window keeps.
package main

import (
	"spear/benchmark/layers/probe"
	"spear/internal/stats"
	"spear/internal/tuple"
)

func main() {
	probe.Main(func(e *probe.Env) (map[string]float64, error) {
		var w stats.Welford
		e.Blocks(func(block []tuple.Tuple) {
			e.Span("stats.welford", func() {
				for _, t := range block {
					w.Add(e.Value(t))
				}
			})
		})
		return map[string]float64{"stats.welford_ns_per_tuple": e.PerTuple("stats.welford")}, nil
	})
}

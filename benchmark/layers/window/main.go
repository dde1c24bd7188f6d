//go:build layerprobe

// Probe of the window layer: assigning 64-tuple runs of timestamps to
// windows, as the columnar kernels do.
package main

import (
	"spear/benchmark/layers/probe"
	"spear/internal/window"
)

func main() {
	probe.Main(func(e *probe.Env) (map[string]float64, error) {
		spec := window.Spec{Domain: window.TimeDomain, Range: e.Shape.Range, Slide: e.Shape.Slide}
		pos := make([]int64, len(e.Input))
		for i, t := range e.Input {
			pos[i] = t.Ts
		}
		touched := 0
		for i := 0; i < len(pos); i += 1024 {
			block := pos[i:min(i+1024, len(pos))]
			e.Span("window.assign", func() {
				for j := 0; j < len(block); j += 64 {
					spec.EachRun(block[j:min(j+64, len(block))], func(i0, i1 int, lo, hi window.ID) {
						touched += (i1 - i0) * int(hi-lo+1)
					})
				}
			})
		}
		return map[string]float64{"window.assign_ns_per_tuple": e.PerTuple("window.assign")}, nil
	})
}

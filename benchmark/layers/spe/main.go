//go:build layerprobe

// Probe of the spe layer: what the engine's plumbing costs per tuple
// with a window manager that does nothing — one hop from the spout to a
// windowed stage, one more through a map stage, the keyed partitioner,
// and a fused three-stage chain on the columnar lane.
package main

import (
	"hash/maphash"
	"runtime"

	"spear/benchmark/layers/probe"
	"spear/internal/col"
	"spear/internal/core"
	"spear/internal/spe"
	"spear/internal/tuple"
)

// nop is a window manager that ingests and fires nothing.
type nop struct{}

func (nop) OnTuple(tuple.Tuple) ([]core.Result, error)            { return nil, nil }
func (nop) OnTupleBatch([]tuple.Tuple) ([]core.Result, error)     { return nil, nil }
func (nop) OnColumnBatch(*col.ColumnBatch) ([]core.Result, error) { return nil, nil }
func (nop) OnWatermark(int64) ([]core.Result, error)              { return nil, nil }
func (nop) MemUsage() int                                         { return 0 }

func main() {
	probe.Main(func(e *probe.Env) (map[string]float64, error) {
		var runErr error
		topology := func(name string, columnar bool, maps int) {
			tp := spe.NewTopology(spe.Config{BatchSize: 64, Columnar: columnar, WatermarkPeriod: e.Shape.Slide, WatermarkLag: e.Shape.WatermarkLag}).
				SetSpout(spe.NewSliceSpout(e.Input))
			for i := 0; i < maps; i++ {
				tp.AddMap("map", 1, func(t tuple.Tuple) (tuple.Tuple, bool) { return t, true })
			}
			tp.SetWindowed("probe", 1, nil, func(int) (core.Manager, error) { return nop{}, nil }).
				SetSink(func(int, core.Result) {})
			e.Span(name, func() {
				if err := tp.Run(); err != nil {
					runErr = err
				}
			})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		topology("spe.hop", false, 0)
		runtime.ReadMemStats(&after)
		topology("spe.map_hop", false, 1)
		topology("spe.fused", true, 3)

		var part spe.Partitioner = spe.NewShuffle()
		if e.Shape.KeyField >= 0 {
			part = spe.NewFields(tuple.FieldString(e.Shape.KeyField), maphash.MakeSeed())
		}
		routed := 0
		e.Blocks(func(block []tuple.Tuple) {
			e.Span("spe.route", func() {
				for _, t := range block {
					routed += part.Route(t, 2)
				}
			})
		})

		n := float64(len(e.Input))
		return map[string]float64{
			"spe.hop_ns_per_tuple": e.PerTuple("spe.hop"),
			// The marginal cost of the extra stage.
			"spe.map_hop_ns_per_tuple":      e.PerTuple("spe.map_hop") - e.PerTuple("spe.hop"),
			"spe.fused_ns_per_tuple":        e.PerTuple("spe.fused"),
			"spe.fields_route_ns_per_tuple": e.PerTuple("spe.route"),
			"spe.allocs_per_tuple":          float64(after.Mallocs-before.Mallocs) / n,
			"spe.alloc_bytes_per_tuple":     float64(after.TotalAlloc-before.TotalAlloc) / n,
		}, runErr
	})
}

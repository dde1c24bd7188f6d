//go:build layerprobe

// Probe of the tuple layer: the binary codec the archive, the spill
// store and the transport all serialize through.
package main

import (
	"spear/benchmark/layers/probe"
	"spear/internal/tuple"
)

func main() {
	probe.Main(func(e *probe.Env) (map[string]float64, error) {
		var enc [][]byte
		var bytes int
		e.Blocks(func(block []tuple.Tuple) {
			e.Span("tuple.encode", func() { enc = append(enc, tuple.EncodeBatch(block)) })
			bytes += len(enc[len(enc)-1])
		})
		var derr error
		for _, b := range enc {
			e.Span("tuple.decode", func() {
				if _, err := tuple.DecodeBatch(b); err != nil {
					derr = err
				}
			})
		}
		return map[string]float64{
			"tuple.encode_ns_per_tuple": e.PerTuple("tuple.encode"),
			"tuple.decode_ns_per_tuple": e.PerTuple("tuple.decode"),
			"tuple.bytes_per_tuple":     float64(bytes) / float64(len(e.Input)),
		}, derr
	})
}

//go:build layerprobe

// Probe of the transport layer's codec: encoding micro-batches into
// frames and decoding them, without a socket.
package main

import (
	"spear/benchmark/layers/probe"
	"spear/internal/transport"
	"spear/internal/tuple"
)

func main() {
	probe.Main(func(e *probe.Env) (map[string]float64, error) {
		var frames [][]byte
		var bytes int
		var seq uint64
		e.Blocks(func(block []tuple.Tuple) {
			e.Span("transport.frame_encode", func() {
				for i := 0; i < len(block); i += 64 {
					seq++
					frames = append(frames, transport.AppendBatch(nil, seq, 0, 0, block[i:min(i+64, len(block))]))
				}
			})
		})
		var failed error
		for i := 0; i < len(frames); i += 16 {
			group := frames[i:min(i+16, len(frames))]
			e.Span("transport.frame_decode", func() {
				for _, f := range group {
					if _, err := transport.DecodeFrame(f); err != nil {
						failed = err
					}
				}
			})
		}
		for _, f := range frames {
			bytes += len(f) + 4 // the length prefix
		}
		return map[string]float64{
			"transport.frame_encode_ns_per_tuple": e.PerTuple("transport.frame_encode"),
			"transport.frame_decode_ns_per_tuple": e.PerTuple("transport.frame_decode"),
			"transport.codec_bytes_per_tuple":     float64(bytes) / float64(len(e.Input)),
		}, failed
	})
}

//go:build layerprobe

// Probe of the spill layer: the async plane the archive writes panes
// through and reads windows back from, and the compressed chunk codec.
// The probe stores the input pane by pane in 512-tuple chunks like the
// archive does, prefetches one window ahead, and reads every window's
// panes back at its watermark.
package main

import (
	"fmt"

	"spear/benchmark/layers/probe"
	"spear/internal/spill"
	"spear/internal/tuple"
)

func main() {
	probe.Main(func(e *probe.Env) (map[string]float64, error) {
		sh := e.Shape
		plane := spill.NewPlane(e.NewStore(), spill.Options{Workers: 2})
		pane := func(ts int64) int64 { return ts / sh.Slide }
		key := func(p int64) string { return fmt.Sprintf("probe/p%d", p) }
		panesPerWindow := sh.Range / sh.Slide

		var chunk []tuple.Tuple
		cur := pane(e.Input[0].Ts)
		var failed error
		flush := func() {
			if len(chunk) == 0 {
				return
			}
			e.Span("spill.store", func() {
				if err := plane.Store(key(cur), chunk); err != nil {
					failed = err
				}
			})
			chunk = chunk[:0]
		}
		for _, t := range e.Input {
			p := pane(t.Ts)
			if p > cur {
				flush()
				// The watermark passed pane cur: the window ending with
				// it is read back, the next one is prefetched.
				if first := cur - panesPerWindow + 1; first >= pane(e.Input[0].Ts) {
					for q := int64(1); q <= panesPerWindow; q++ {
						plane.Prefetch(key(first + q))
					}
					e.Span("spill.get", func() {
						for q := first; q <= cur; q++ {
							if _, err := plane.Get(key(q)); err != nil {
								failed = err
							}
						}
					})
					if err := plane.Delete(key(first)); err != nil {
						failed = err
					}
				}
				cur = p
			}
			if p == cur { // the probe drops the few tuples that arrive behind the pane
				if chunk = append(chunk, t); len(chunk) == 512 {
					flush()
				}
			}
		}
		flush()
		st := plane.PlaneStats()
		if err := plane.Close(); err != nil && failed == nil {
			failed = err
		}

		// The chunk codec on its own, over the same 512-tuple chunks.
		var raw, encoded int
		var blobs [][]byte
		for i := 0; i < len(e.Input); i += 512 {
			c := e.Input[i:min(i+512, len(e.Input))]
			e.Span("spill.chunk_encode", func() {
				b, err := spill.EncodeChunk(c, 1)
				if err != nil {
					failed = err
				}
				blobs = append(blobs, b)
			})
			raw += len(tuple.EncodeBatch(c))
			encoded += len(blobs[len(blobs)-1])
		}
		for _, b := range blobs {
			e.Span("spill.chunk_decode", func() {
				if _, err := spill.DecodeChunk(b); err != nil {
					failed = err
				}
			})
		}

		ratio := func(a, b int64) float64 {
			if b == 0 {
				return 0
			}
			return float64(a) / float64(b)
		}
		return map[string]float64{
			"spill.store_block_ns_per_tuple":  e.PerTuple("spill.store"),
			"spill.get_wait_us_per_window":    e.PerSpan("spill.get"),
			"spill.probe_cache_hit_frac":      ratio(st.CacheHits, st.CacheHits+st.CacheMisses),
			"spill.probe_prefetch_hit_frac":   ratio(st.PrefetchHits, st.PrefetchIssued),
			"spill.chunk_encode_ns_per_tuple": e.PerTuple("spill.chunk_encode"),
			"spill.chunk_decode_ns_per_tuple": e.PerTuple("spill.chunk_decode"),
			"spill.chunk_ratio":               ratio(int64(raw), int64(encoded)),
		}, failed
	})
}

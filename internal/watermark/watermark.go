// Package watermark implements the engine's trigger mechanism (§2):
// watermarks are control tuples carrying a timestamp τ_W whose receipt
// guarantees that all tuples with τ ≤ τ_W have been observed. The
// source generates them periodically; a worker has one sender, so the
// watermark it acts on is simply the largest it has received.
package watermark

// Generator decides when a source should emit a watermark. It emits one
// whenever event time crosses a period boundary; with an in-order stream
// a watermark at the boundary is safe because windows are half-open (a
// tuple timestamped exactly τ_W belongs only to windows ending after
// τ_W). A configurable lag delays watermarks to tolerate bounded
// disorder.
type Generator struct {
	period int64
	lag    int64
	last   int64
	init   bool
}

// NewGenerator returns a generator emitting every period of event time,
// held back by lag. Period must be positive; lag non-negative.
func NewGenerator(period, lag int64) *Generator {
	if period <= 0 {
		panic("watermark: period must be positive")
	}
	if lag < 0 {
		panic("watermark: lag must be non-negative")
	}
	return &Generator{period: period, lag: lag}
}

// Observe advances the generator with one tuple's event time and
// returns a watermark to emit, if any. The returned watermark is the
// largest period boundary ≤ ts − lag that has not been emitted yet.
//
// It runs once per source tuple and emits once per period, so the
// common case must not divide: last is a period boundary, hence the
// boundary under ts − lag is past it exactly when ts − lag ≥ last +
// period. (Should last + period overflow, no int64 reaches it and the
// wrapped sum only sends the call down the exact path.)
func (g *Generator) Observe(ts int64) (wm int64, emit bool) {
	if g.init && ts-g.lag < g.last+g.period {
		return 0, false
	}
	return g.advance(ts)
}

func (g *Generator) advance(ts int64) (wm int64, emit bool) {
	b := floorDiv(ts-g.lag, g.period) * g.period
	if !g.init {
		g.init = true
		g.last = b
		return b, true
	}
	if b > g.last {
		g.last = b
		return b, true
	}
	return 0, false
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

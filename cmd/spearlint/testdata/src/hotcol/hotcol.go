// Package hotcol is a spearlint fixture mirroring the columnar ingest
// kernels' shape: OnColumnBatch loops — including loops inside the
// window-run visit closures, which run synchronously — are per-tuple
// hot and must stay in column format. The analyzer must flag
// tuple.Value boxing, per-row Value accessors, per-row interface
// conversions, Vals row-storage indexing, and the usual mutex/metric
// and allocation-churn regressions there, while per-batch eligibility
// gates, per-run amortized work, and stored closures stay quiet.
package hotcol

import (
	"sync"

	"spear/internal/tuple"
)

// Tuple stands in for tuple.Tuple (row format: boxed Vals storage).
type Tuple struct {
	Ts   int64
	Vals []tuple.Value
}

// ColumnBatch stands in for col.ColumnBatch.
type ColumnBatch struct {
	ts   []int64
	vals []float64
	rows []Tuple
}

func (b *ColumnBatch) Len() int             { return len(b.ts) }
func (b *ColumnBatch) Ts() []int64          { return b.ts }
func (b *ColumnBatch) Floats(int) []float64 { return b.vals }
func (b *ColumnBatch) Rows() []Tuple        { return b.rows }

// workerTelemetry mimics obs.Worker.
type workerTelemetry struct {
	ProcTime histo
	TuplesIn counter
}

type histo struct{}

func (histo) Observe(float64) {}

type counter struct{}

func (counter) Add(int64) {}

// reservoir's AddSlice is the sanctioned per-run bulk call: quiet.
type reservoir struct{}

func (reservoir) AddSlice([]float64) {}

// eachRun mimics window.Spec.EachRun: the visit closure runs
// synchronously per window run of the batch.
func eachRun(ts []int64, visit func(i0, i1 int)) {
	if len(ts) > 0 {
		visit(0, len(ts))
	}
}

// Manager mimics core.ScalarManager.
type Manager struct {
	mu      sync.Mutex
	Metrics *workerTelemetry
	res     reservoir
}

// OnColumnBatch mirrors the kernel shape: a per-batch eligibility gate
// (free to box, unbox, and assert), then tight loops over the columns.
func (m *Manager) OnColumnBatch(cb *ColumnBatch) {
	rows := cb.Rows()
	vals := cb.Floats(0)
	ts := cb.Ts()

	// Per-batch gate: the first-row tripwire legitimately reads row
	// format and boxes once per batch — all quiet.
	first := rows[0].Vals[0]
	_ = first.AsFloat()
	probe := tuple.Float(vals[0])
	_ = probe
	var iv interface{} = first
	_, _ = iv.(float64)

	for i := range vals {
		v := rows[i].Vals[0]           // want "row-format field access"
		_ = v.AsFloat()                // want "per-row Value accessor"
		_ = tuple.Float(vals[i])       // want "tuple.Value boxing"
		if f, ok := iv.(float64); ok { // want "per-row interface conversion"
			_ = f
		}
		m.mu.Lock() // want "mutex acquired"
		m.mu.Unlock()
		m.Metrics.ProcTime.Observe(vals[i])                // want "mutex-guarded metric"
		m.Metrics.TuplesIn.Add(1)                          // atomic counter: quiet
		mk := func() tuple.Value { return tuple.Float(0) } // stored closure: quiet
		_ = mk
	}

	var lazy []float64
	eachRun(ts, func(i0, i1 int) {
		// Per-run work outside the loops is amortized per run: quiet.
		m.res.AddSlice(vals[i0:i1])
		_ = tuple.Int(int64(i0))

		// The visit closure runs synchronously: its loops are
		// per-tuple hot, same rules as the body's own loops.
		for i := i0; i < i1; i++ {
			s := rows[i].Vals[1]         // want "row-format field access"
			_ = s.AsString()             // want "per-row Value accessor"
			_ = tuple.New(ts[i], s)      // want "tuple.Value boxing"
			lazy = append(lazy, vals[i]) // want "append to lazy"
		}
	})

	// Post-loop teardown is per-batch again: quiet.
	_ = rows[len(rows)-1].Vals[0].AsFloat()
}

// OnColumnBatch as a plain function (no receiver) is not an entry
// point: quiet.
func OnColumnBatch(cb *ColumnBatch) {
	for i := range cb.vals {
		_ = cb.rows[i].Vals[0]
	}
}

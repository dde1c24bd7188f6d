// Package hotkernel is a spearlint fixture mirroring the window
// managers' shape: OnTuple, OnTupleBatch and OnColumnBatch are adapters
// to one kernel, ingestRun, whose loops — including loops inside the
// window-run visit closure, which runs synchronously — are per-tuple
// hot. The analyzer must flag mutex acquisitions, Metrics-chained
// histogram observations, allocation churn (formatting, string
// concatenation, unsized appends) and row-format regressions
// (tuple.Value boxing, per-row Value accessors, per-row interface
// conversions, Vals row-storage indexing) there, and must stay quiet
// about the adapters, per-batch and per-run work outside the loops,
// per-window fire helpers, stored closures and non-metric Observe
// methods.
package hotkernel

import (
	"fmt"
	"sync"

	"spear/internal/tuple"
)

// Tuple stands in for tuple.Tuple (row format: boxed Vals storage).
type Tuple struct {
	Ts   int64
	Key  string
	Vals []tuple.Value
}

// workerTelemetry mimics obs.Worker.
type workerTelemetry struct {
	ProcTime  histo
	TuplesIn  counter
	SampleNow gauge
}

type histo struct{}

func (histo) Observe(float64)       {}
func (histo) ObserveDuration(int64) {}

type counter struct{}

func (counter) Add(int64) {}

type gauge struct{}

func (gauge) Set(float64) {}

// sketch has an Observe that is NOT a metric: its chain never passes
// Metrics, so it must stay unflagged even inside a kernel loop.
type sketch struct{}

func (sketch) Observe(v float64) {}

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
	sk      sketch
	res     reservoir
	keys    []string
	label   string
	pos     []int64
	vals    []float64
}

// The entry points are adapters. What they do is per batch, and a loop
// in one of them is not the kernel's: quiet, whatever it holds.
func (m *Manager) OnTuple(t Tuple) {
	row := [1]Tuple{t}
	m.OnTupleBatch(row[:])
}

func (m *Manager) OnTupleBatch(rows []Tuple) {
	m.mu.Lock()
	m.mu.Unlock()
	m.Metrics.ProcTime.Observe(0)
	m.pos, m.vals = m.pos[:0], m.vals[:0]
	for _, t := range rows {
		m.pos = append(m.pos, t.Ts)
		m.vals = append(m.vals, t.Vals[0].AsFloat())
	}
	m.ingestRun(m.pos, m.vals, rows)
}

// ingestRun mirrors the kernel shape: per-batch setup, a visit closure
// per run with per-run work, and tight loops over the columns.
func (m *Manager) ingestRun(ts []int64, vals []float64, rows []Tuple) {
	// Per-batch setup: one lock, one observation, sized and unsized
	// allocation, formatting, concatenation, reading row format and
	// boxing are all fine outside the loops — once per batch is the
	// amortization the engine is built around.
	m.mu.Lock()
	m.mu.Unlock()
	m.Metrics.ProcTime.Observe(0)
	sized := make([]int64, 0, len(ts))
	var lazy []int64
	grown := make([]string, 0)
	empty := []string{}
	seeded := []string{"batch"}
	m.label = fmt.Sprintf("batch-%d", len(ts))
	header := m.label + ":"
	first := rows[0].Vals[0]
	_ = first.AsFloat()
	_ = tuple.Float(vals[0])
	var iv interface{} = first
	_, _ = iv.(float64)

	for i, t := range rows {
		m.Metrics.TuplesIn.Add(1)   // atomic counter: quiet
		m.Metrics.SampleNow.Set(1)  // atomic gauge: quiet
		m.sk.Observe(float64(t.Ts)) // sketch, not a metric: quiet
		m.mu.Lock()                 // want "mutex acquired"
		m.mu.Unlock()
		m.Metrics.ProcTime.Observe(vals[i])   // want "mutex-guarded metric"
		m.Metrics.ProcTime.ObserveDuration(3) // want "mutex-guarded metric"

		sized = append(sized, t.Ts)      // sized: quiet
		lazy = append(lazy, t.Ts)        // want "append to lazy"
		grown = append(grown, t.Key)     // want "append to grown"
		empty = append(empty, t.Key)     // want "append to empty"
		seeded = append(seeded, t.Key)   // seeded literal: quiet
		m.keys = append(m.keys, t.Key)   // field, unknown capacity: quiet
		s := fmt.Sprintf("k-%d", t.Ts)   // want "fmt.Sprintf inside"
		_ = fmt.Sprint(t.Ts)             // want "fmt.Sprint inside"
		key := header + t.Key + "suffix" // want "string concatenation (+)"
		key += t.Key                     // want "string concatenation (+=)"
		_, _ = s, key

		v := rows[i].Vals[0]           // want "row-format field access"
		_ = v.AsFloat()                // want "per-row Value accessor"
		_ = tuple.Float(vals[i])       // want "tuple.Value boxing"
		if f, ok := iv.(float64); ok { // want "per-row interface conversion"
			_ = f
		}
		mk := func() tuple.Value { return tuple.String_(t.Key + "closure") } // stored closure: quiet
		_ = mk
	}

	eachRun(ts, func(i0, i1 int) {
		// Per-run work outside the loops is amortized per run: quiet.
		m.res.AddSlice(vals[i0:i1])
		_ = tuple.Int(int64(i0))
		m.Metrics.ProcTime.Observe(1)
		m.fire()

		// The visit closure runs synchronously: its loops are
		// per-tuple hot, same rules as the body's own loops.
		for id := 0; id < 3; id++ {
			m.Metrics.ProcTime.ObserveDuration(1) // want "mutex-guarded metric"
			for i := i0; i < i1; i++ {
				s := rows[i].Vals[1]       // want "row-format field access"
				_ = s.AsString()           // want "per-row Value accessor"
				_ = tuple.New(ts[i], s)    // want "tuple.Value boxing"
				lazy = append(lazy, ts[i]) // want "append to lazy"
			}
		}
	})

	// Post-loop teardown is per-batch again: quiet.
	m.label = header + "done"
	_ = fmt.Sprintf("%d", len(lazy))
	_ = append(grown, "tail")
	_ = rows[len(rows)-1].Vals[0].AsFloat()
}

// fire is a per-window helper: the kernel calls it, but the scan does
// no call expansion, so its once-per-window observation stays exempt.
func (m *Manager) fire() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < 2; i++ {
		m.Metrics.ProcTime.ObserveDuration(9)
	}
}

// ingestRun on a different receiver is still a kernel.
type grouped struct {
	mu sync.Mutex
}

func (g *grouped) ingestRun(ids []uint32) {
	for range ids {
		g.mu.Lock() // want "mutex acquired"
		g.mu.Unlock()
	}
}

// ingestRuns (wrong name) is not a kernel: quiet.
func (g *grouped) ingestRuns(ids []uint32) {
	for range ids {
		g.mu.Lock()
		g.mu.Unlock()
	}
}

// ingestRun as a plain function (no receiver) is not a kernel: quiet.
func ingestRun(rows []Tuple) {
	for i := range rows {
		_ = rows[i].Vals[0]
	}
}

// Package hottuple is a spearlint fixture mirroring the window
// managers' shape: OnTuple runs once per tuple so its whole body is
// hot; OnTupleBatch amortizes per batch so only its loops are hot. The
// analyzer must flag explicit mutex acquisitions and Metrics-chained
// histogram observations on those paths, and must stay quiet about
// per-batch setup, per-window fire helpers, and non-metric Observe
// methods.
package hottuple

import (
	"fmt"
	"sync"
)

// Tuple stands in for tuple.Tuple.
type Tuple struct{ Ts int64 }

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

func (counter) Inc() {}

type gauge struct{}

func (gauge) Set(float64) {}

// sketch has an Observe that is NOT a metric: its chain never passes
// Metrics, so it must stay unflagged even on per-tuple paths.
type sketch struct{}

func (sketch) Observe(v float64) {}

// Manager mimics core.ScalarManager.
type Manager struct {
	mu      sync.Mutex
	Metrics *workerTelemetry
	sk      sketch
}

// OnTuple runs once per tuple: the whole body is hot.
func (m *Manager) OnTuple(t Tuple) {
	m.Metrics.TuplesIn.Inc()    // atomic counter: quiet
	m.Metrics.SampleNow.Set(1)  // atomic gauge: quiet
	m.sk.Observe(float64(t.Ts)) // sketch, not a metric: quiet
	m.mu.Lock()                 // want "mutex acquired"
	m.mu.Unlock()
	m.Metrics.ProcTime.Observe(2)         // want "mutex-guarded metric"
	m.Metrics.ProcTime.ObserveDuration(3) // want "mutex-guarded metric"
	defer func() {
		// Deferred closures are not scanned: they may run once per
		// manager lifetime, not per tuple.
		m.mu.Lock()
		m.mu.Unlock()
	}()
	m.fire()
}

// OnTupleBatch runs once per batch: setup outside the loops is fine,
// the loop bodies are per-tuple hot.
func (m *Manager) OnTupleBatch(ts []Tuple) {
	// Per-batch setup: one lock and one observation per batch is the
	// amortization the engine is built around.
	m.mu.Lock()
	m.mu.Unlock()
	m.Metrics.ProcTime.Observe(0)

	for _, t := range ts {
		m.mu.Lock() // want "mutex acquired"
		m.mu.Unlock()
		m.Metrics.ProcTime.Observe(float64(t.Ts)) // want "mutex-guarded metric"
		m.sk.Observe(1)                           // sketch: quiet
	}
	for i := 0; i < len(ts); i++ {
		m.Metrics.ProcTime.ObserveDuration(1) // want "mutex-guarded metric"
	}

	// Post-loop teardown is per-batch again: quiet.
	m.Metrics.ProcTime.Observe(1)
}

// fire is a per-window helper: OnTuple calls it, but the core scan does
// no call expansion, so its once-per-window observation stays exempt.
func (m *Manager) fire() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Metrics.ProcTime.ObserveDuration(9)
}

// OnTuple on a different receiver is still a manager entry point.
type grouped struct {
	mu      sync.Mutex
	Metrics *workerTelemetry
}

func (g *grouped) OnTuple(t Tuple) {
	g.mu.Lock() // want "mutex acquired"
	g.mu.Unlock()
}

// onTuple (unexported, wrong name) is not an entry point: quiet.
func (g *grouped) onTuple(t Tuple) {
	g.mu.Lock()
	g.mu.Unlock()
}

// Keyed carries a locally-typed string so the concatenation check has
// full type information (the stub importer leaves fmt results untyped).
type Keyed struct {
	Ts  int64
	Key string
}

// batcher exercises the allocation-churn checks: formatting, string
// concatenation, and unsized appends are per-tuple garbage inside the
// batch loops; sized appends and per-batch work stay quiet.
type batcher struct {
	keys  []string
	label string
}

func (b *batcher) OnTupleBatch(ts []Keyed) {
	// Per-batch setup: sized and unsized allocation, formatting, and
	// concatenation are all fine outside the loops — once per batch is
	// the amortization the engine is built around.
	sized := make([]int64, 0, len(ts))
	var lazy []int64
	grown := make([]string, 0)
	empty := []string{}
	seeded := []string{"batch"}
	b.label = fmt.Sprintf("batch-%d", len(ts))
	header := b.label + ":"

	for _, t := range ts {
		sized = append(sized, t.Ts)      // sized: quiet
		lazy = append(lazy, t.Ts)        // want "append to lazy"
		grown = append(grown, t.Key)     // want "append to grown"
		empty = append(empty, t.Key)     // want "append to empty"
		seeded = append(seeded, t.Key)   // seeded literal: quiet
		b.keys = append(b.keys, t.Key)   // field, unknown capacity: quiet
		s := fmt.Sprintf("k-%d", t.Ts)   // want "fmt.Sprintf inside"
		_ = fmt.Sprint(t.Ts)             // want "fmt.Sprint inside"
		key := header + t.Key + "suffix" // want "string concatenation (+)"
		key += t.Key                     // want "string concatenation (+=)"
		_, _ = s, key
		mk := func() string { return t.Key + "closure" } // closure: quiet
		_ = mk
	}

	for i := 0; i < len(ts); i++ {
		lazy = append(lazy, ts[i].Ts) // want "append to lazy"
	}

	// Post-loop teardown: per-batch again, quiet.
	b.label = header + "done"
	_ = fmt.Sprintf("%d", len(lazy))
	_ = append(grown, "tail")
}

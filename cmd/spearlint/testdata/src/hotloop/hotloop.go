// Package hotloop is a spearlint fixture mirroring the engine's shape:
// a Topology.Run that launches worker goroutines whose loops are the
// per-tuple hot path. The analyzer must flag wall-clock reads and map
// allocations inside those loops — including in closures and in
// package-local functions the workers call — and must stay quiet about
// per-worker setup and about functions Run never reaches through a
// goroutine.
package hotloop

import (
	"sync"
	"time"
)

// Message stands in for the engine's transfer unit.
type Message struct{ V int }

// workerTelemetry mimics obs.Worker: ProcTime is a mutex-guarded
// histogram.
type workerTelemetry struct{ ProcTime histo }

type histo struct{}

func (histo) Observe(float64)               {}
func (histo) ObserveDuration(time.Duration) {}

// aligner mimics the barrier aligner: its Observe is NOT a metric call
// and must stay unflagged.
type aligner struct{}

func (aligner) Observe(m Message) {}

// Topology mimics spe.Topology.
type Topology struct {
	in      chan []Message
	par     int
	mu      sync.Mutex
	Metrics *workerTelemetry
}

// Run launches the worker goroutines, like spe.Topology.Run.
func (tp *Topology) Run() error {
	// Setup in Run itself is not worker code: no findings here.
	cfg := map[string]int{"batch": 64}
	_ = cfg
	_ = time.Now()

	go func() {
		// Per-worker setup before the loop is fine.
		seenSetup := make(map[int]bool)
		_ = seenSetup
		started := time.Now()
		_ = started

		process := func(m Message) {
			for i := 0; i < m.V; i++ {
				m := make(map[int]int) // want "map allocation"
				_ = m
			}
		}
		// Locks and mutex-guarded metrics in setup are fine.
		tp.mu.Lock()
		tp.mu.Unlock()
		tp.Metrics.ProcTime.Observe(0)

		var al aligner
		for batch := range tp.in {
			for _, msg := range batch {
				_ = time.Now().UnixNano()              // want "time.Now"
				idx := map[string]int{}                // want "map literal"
				tp.mu.Lock()                           // want "mutex acquired"
				tp.mu.Unlock()                         //
				tp.Metrics.ProcTime.Observe(1)         // want "mutex-guarded metric"
				tp.Metrics.ProcTime.ObserveDuration(0) // want "mutex-guarded metric"
				al.Observe(msg)                        // aligner, not a metric: quiet
				_ = idx
				process(msg)
				tp.pump(msg)
				helper(msg)
			}
		}
	}()
	return nil
}

// pump is a method the worker calls per message: its loops are hot.
func (tp *Topology) pump(m Message) {
	for i := 0; i < m.V; i++ {
		_ = time.Now() // want "time.Now"
	}
	// Outside any loop: setup-grade, not flagged.
	_ = make(map[int]int)
}

// helper is a package function the worker calls per message.
func helper(m Message) {
	for i := 0; i < m.V; i++ {
		set := make(map[int]bool) // want "map allocation"
		_ = set
	}
}

// coldPath is never reached from a Run goroutine: nothing here is
// flagged, loops or not.
func coldPath() {
	for i := 0; i < 8; i++ {
		_ = time.Now()
		_ = make(map[int]int)
	}
}

// Package obsx is the blockfree negative fixture: lock-free entries
// that honour the contract, blocking code with no lock-free claim, and
// one audited exemption.
package obsx

import (
	"sync"
	"sync/atomic"
)

// AtomicGauge is a lock-free instrument: one typed-atomic store.
type AtomicGauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *AtomicGauge) Set(v int64) { g.v.Store(v) }

// Offload is lock-free on the caller: the channel send runs on a
// spawned goroutine, which blocks only itself.
func Offload(ch chan int64, v int64) {
	go func() { ch <- v }()
}

// TrySend is lock-free: a select with a default clause never blocks,
// and its communication case is governed by the select, not reported
// as a bare send.
func TrySend(ch chan int64, v int64) bool {
	select {
	case ch <- v:
		return true
	default:
		return false
	}
}

// Locked takes a mutex and never claims otherwise — out of contract.
type Locked struct {
	mu sync.Mutex
	v  int64
}

// Set stores the value under the lock.
func (l *Locked) Set(v int64) {
	l.mu.Lock()
	l.v = v
	l.mu.Unlock()
}

// SlowPath is a lock-free instrument whose Flush carries one audited
// exemption.
type SlowPath struct{ mu sync.Mutex }

// Flush drains buffered state.
func (s *SlowPath) Flush() {
	//lint:ignore blockfree flush runs off the scrape path; audited with the obs plane rework
	s.mu.Lock()
	s.mu.Unlock()
}

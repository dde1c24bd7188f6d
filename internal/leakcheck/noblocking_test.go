package leakcheck

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The ops NoBlocking is tried on: package functions, so each names its
// own frame in a report.
var (
	staleMu, sharedMu sync.Mutex
	stale, shared     int
	pingPong          = make(chan int, 1)
	counter           atomic.Int64
)

func lockStale(g, i int) { staleMu.Lock(); stale++; staleMu.Unlock() }

func lockShared(g, i int) { sharedMu.Lock(); shared++; sharedMu.Unlock() }

// sendReceive parks whenever another goroutine's value fills the
// channel: four goroutines share one slot, and each takes out as many
// values as it puts in, so none waits for ever.
func sendReceive(g, i int) { pingPong <- i; <-pingPong }

func addAtomic(g, i int) { counter.Add(1) }

// TestNoBlocking runs NoBlocking after a blocking op has left records
// in both profiles: each op must be reported through its own frame and
// nothing else — not the stale records (the before/after diff), not the
// helper's own wait for its goroutines (the frame filter).
func TestNoBlocking(t *testing.T) {
	NoBlocking(&recorder{TB: t}, lockStale)
	for _, c := range []struct {
		name   string
		op     func(g, i int)
		blocks bool
		frame  string
	}{
		{"contended_mutex", lockShared, true, "leakcheck.lockShared"},
		{"channel_send", sendReceive, true, "leakcheck.sendReceive"},
		{"atomic_add", addAtomic, false, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := &recorder{TB: t}
			NoBlocking(r, c.op)
			if r.failed != c.blocks {
				t.Fatalf("reported %v, want %v: %v", r.failed, c.blocks, r.messages)
			}
			if !c.blocks {
				return
			}
			for _, rec := range r.messages {
				if !strings.Contains(rec, c.frame+"\n") {
					t.Errorf("a record whose stack is not the op's: %s", rec)
				}
			}
			t.Logf("%d record(s), e.g. %s", len(r.messages), r.messages[0])
		})
	}
}

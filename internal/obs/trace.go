package obs

import (
	"sync"
	"time"
)

// DefaultTraceCap bounds the trace ring when the caller does not pick a
// capacity.
const DefaultTraceCap = 4096

// Trace event kinds, in lifecycle order.
const (
	TraceIngest = "ingest" // spout emitted the sampled tuple
	TraceAssign = "assign" // a windowed worker received it
	TraceFire   = "fire"   // a window containing sampled event time fired
	TraceEmit   = "emit"   // the sink received that window's result
)

// TraceEvent is one sampled lifecycle observation.
type TraceEvent struct {
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Stage  string `json:"stage"`
	Worker int    `json:"worker"`
	// Ts is the tuple's event time (ingest/assign) or the window start
	// (fire/emit), nanoseconds.
	Ts int64 `json:"ts"`
	// WindowEnd is set for fire/emit events.
	WindowEnd int64 `json:"window_end,omitempty"`
	// Mode annotates fire/emit events: exact, sampled, or incremental.
	Mode string `json:"mode,omitempty"`
	// Spilled marks fire events whose window touched secondary storage.
	Spilled bool `json:"spilled,omitempty"`
	// Wall is the wall-clock time the event was recorded, UnixNano.
	Wall int64 `json:"wall"`
}

// TraceRing records the lifecycle of every nth tuple (and every nth
// window) in a bounded ring: the newest cap events win. Appends take a
// mutex, but only sampled events ever reach Record — at the default
// sampling rate that is one lock per n tuples per stage, off the
// per-tuple path.
type TraceRing struct {
	mu    sync.Mutex
	buf   []TraceEvent
	start int // index of the oldest event
	size  int
	next  uint64
	n     uint64
	clock func() time.Time
}

// NewTraceRing returns a ring sampling every nth tuple with the most
// recent cap events retained.
func NewTraceRing(n, cap int) *TraceRing {
	if n < 1 {
		n = 1
	}
	if cap < 1 {
		cap = DefaultTraceCap
	}
	return &TraceRing{buf: make([]TraceEvent, cap), n: uint64(n), clock: time.Now}
}

// SampleTs reports whether a tuple with event time ts is traced. The
// decision hashes the timestamp so it is consistent across stages
// without any cross-goroutine coordination.
func (r *TraceRing) SampleTs(ts int64) bool {
	h := uint64(ts) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h%r.n == 0
}

// SampleWindow reports whether a window starting at start is traced.
func (r *TraceRing) SampleWindow(start int64) bool {
	h := uint64(start)*0xbf58476d1ce4e5b9 + 1
	h ^= h >> 31
	return h%r.n == 0
}

// Record appends one event, stamping its sequence number and wall time.
func (r *TraceRing) Record(ev TraceEvent) {
	r.mu.Lock()
	ev.Seq = r.next
	r.next++
	ev.Wall = r.clock().UnixNano()
	if r.size < len(r.buf) {
		r.buf[(r.start+r.size)%len(r.buf)] = ev
		r.size++
	} else {
		r.buf[r.start] = ev
		r.start = (r.start + 1) % len(r.buf)
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *TraceRing) Events() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEvent, r.size)
	for i := 0; i < r.size; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Recorded returns the total number of events ever recorded (including
// ones the ring has since overwritten).
func (r *TraceRing) Recorded() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

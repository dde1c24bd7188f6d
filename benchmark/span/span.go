// Package span is the benchmark's tracer: spans are recorded in memory
// from the benchmark's own code, around the calls into each layer, and
// written out when the run ends. Nothing inside the program is
// instrumented.
package span

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval. Start and End are nanoseconds since the
// recorder was created; Parent is the ID of the span that caused this
// one (0 for none); Worker is the engine worker it ran for (-1 when the
// caller cannot know). Busy, when set, is the time spent inside the
// traced calls of a span that covers many short calls.
type Span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int64  `json:"parent"`
	Worker int    `json:"worker"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// Recorder collects spans from any goroutine. A nil Recorder records
// nothing, so untraced runs pass nil and pay one nil check per call.
type Recorder struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	all  []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Open is a span that has begun and not yet ended.
type Open struct {
	r *Recorder
	s Span
}

// Begin starts a span. Call End on the result.
func (r *Recorder) Begin(name string, parent int64, worker int) Open {
	if r == nil {
		return Open{}
	}
	return Open{r: r, s: Span{
		ID: r.next.Add(1), Name: name, Parent: parent, Worker: worker,
		Start: int64(time.Since(r.t0)),
	}}
}

// ID identifies the open span, for use as a child's Parent.
func (o Open) ID() int64 { return o.s.ID }

// End closes the span and records it.
func (o Open) End() { o.EndBusy(0) }

// EndAs closes the span under another name, for a caller that learns
// what the span was only from the call's result.
func (o Open) EndAs(name string) {
	o.s.Name = name
	o.End()
}

// EndBusy closes a span covering many short calls whose summed
// duration is busy.
func (o Open) EndBusy(busy time.Duration) {
	if o.r == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.t0))
	o.s.Busy = int64(busy)
	o.r.mu.Lock()
	o.r.all = append(o.r.all, o.s)
	o.r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.all...)
}

// Total aggregates the spans sharing one name.
type Total struct {
	Count int64 `json:"count"`
	// Nanos is the summed duration; SelfNanos is that minus the part
	// of each span's interval its child spans cover.
	Nanos     int64 `json:"ns"`
	SelfNanos int64 `json:"self_ns"`
	BusyNanos int64 `json:"busy_ns,omitempty"`
}

// Totals folds spans by name, computing each span's self time as its
// duration minus the union of its children's intervals clipped to it.
func Totals(spans []Span) map[string]Total {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]Total)
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Nanos += s.End - s.Start
		t.SelfNanos += s.End - s.Start - covered(s, kids[s.ID])
		t.BusyNanos += s.Busy
		out[s.Name] = t
	}
	return out
}

// covered is the length of the union of the children's intervals that
// falls inside p.
func covered(p Span, children []Span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var sum int64
	at := p.Start
	for _, c := range children {
		lo, hi := max(c.Start, at), min(c.End, p.End)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

// WriteFile writes v as indented JSON to path.
func WriteFile(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

package spe

import (
	"fmt"
	"time"
)

// barrierAligner implements aligned (Flink-style) checkpoint barriers
// for a worker whose single input channel multiplexes several upstream
// senders. A checkpoint barrier with id k partitions each sender's
// batch sequence into "before k" and "after k" (a run never straddles
// one: the sender flushes before it broadcasts). The worker may only
// snapshot once it has seen barrier k from every sender, and must not
// fold post-barrier batches into pre-barrier state; because all
// senders share one Go channel, the aligner cannot block a sender the
// way Flink blocks a network channel, so it buffers batches arriving
// from senders that already delivered the barrier and releases them, in
// arrival order, after the snapshot point. A buffered run stays owned
// by the worker, which recycles it when it is released.
//
// Observe returns the ordered events the worker must process: runs and
// watermarks, interleaved with snapshot points. Buffered future
// barriers are re-observed recursively when an alignment completes, so
// back-to-back checkpoints nest correctly.
type barrierAligner struct {
	senders  int
	aligning bool
	id       uint64
	passed   []bool
	passedN  int
	buffered []Batch

	// Stall telemetry: time from the first barrier of a round to
	// alignment completion. Both hooks are optional.
	now        func() time.Time
	stall      func(time.Duration)
	alignStart time.Time
}

// alignEvent is one unit of ordered work released by the aligner.
type alignEvent struct {
	b        Batch
	snapshot bool   // true: snapshot point; b is meaningless
	id       uint64 // checkpoint id at a snapshot point
}

func newBarrierAligner(senders int, now func() time.Time, stall func(time.Duration)) *barrierAligner {
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	return &barrierAligner{
		senders: senders,
		passed:  make([]bool, senders),
		now:     now,
		stall:   stall,
	}
}

// Aligning reports whether an alignment round is in progress; callers
// use it to skip Observe on the hot path when no barrier is in flight.
func (a *barrierAligner) Aligning() bool { return a.aligning }

// Observe feeds one batch and returns the events it releases.
func (a *barrierAligner) Observe(b Batch) ([]alignEvent, error) {
	return a.observe(b, nil)
}

func (a *barrierAligner) observe(b Batch, events []alignEvent) ([]alignEvent, error) {
	if b.Sender < 0 || b.Sender >= a.senders {
		return events, fmt.Errorf("spe: barrier aligner: sender %d of %d", b.Sender, a.senders)
	}
	if !a.aligning {
		if b.Ctl != Barrier {
			return append(events, alignEvent{b: b}), nil
		}
		a.aligning = true
		a.id = b.Barrier
		a.passedN = 0
		for i := range a.passed {
			a.passed[i] = false
		}
		a.alignStart = a.now()
		return a.mark(b.Sender, events)
	}

	// Mid-alignment.
	if b.Ctl == Barrier {
		if b.Barrier == a.id {
			if a.passed[b.Sender] {
				return events, fmt.Errorf("spe: duplicate barrier %d from sender %d", a.id, b.Sender)
			}
			return a.mark(b.Sender, events)
		}
		if !a.passed[b.Sender] {
			// A sender skipped barrier a.id entirely: the spout emits
			// barriers in order to every channel, so this is protocol
			// corruption, not reordering.
			return events, fmt.Errorf("spe: barrier %d from sender %d while aligning %d",
				b.Barrier, b.Sender, a.id)
		}
		// A future barrier from a sender that already passed: it
		// belongs to the next round; hold it with the other
		// post-barrier traffic.
		a.buffered = append(a.buffered, b)
		return events, nil
	}
	if a.passed[b.Sender] {
		a.buffered = append(a.buffered, b)
		return events, nil
	}
	return append(events, alignEvent{b: b}), nil
}

// mark records that sender delivered the current barrier and, when the
// round completes, emits the snapshot point followed by the buffered
// backlog (re-observed, since it may start the next round).
func (a *barrierAligner) mark(sender int, events []alignEvent) ([]alignEvent, error) {
	a.passed[sender] = true
	a.passedN++
	if a.passedN < a.senders {
		return events, nil
	}
	if a.stall != nil {
		a.stall(a.now().Sub(a.alignStart))
	}
	a.aligning = false
	events = append(events, alignEvent{snapshot: true, id: a.id})
	backlog := a.buffered
	a.buffered = nil
	for _, m := range backlog {
		var err error
		events, err = a.observe(m, events)
		if err != nil {
			return events, err
		}
	}
	return events, nil
}

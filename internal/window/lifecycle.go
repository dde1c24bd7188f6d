package window

import (
	"fmt"

	"spear/internal/tuple"
)

// Lifecycle is the window lifecycle the host SPE keeps and SPEAr does
// not change (§2, Alg. 1–2), stated once for every manager: which
// windows a tuple may still enter at arrival, and which windows a
// watermark closes. What a window holds — a buffer, a sample, an
// accumulator — is the manager's business; when it opens and closes is
// decided here.
//
// The policy: the first tuple anchors the oldest open window at its own
// oldest window. Until a window has actually closed that anchor is only
// a guess — a source with bounded disorder delivers unordered between
// watermark rounds — so an earlier tuple lowers it. Once a fire has closed
// windows, a tuple all of whose windows are closed is late and dropped,
// and one that straddles enters the windows still open. A watermark
// closes nextFire..FirstCompleteBy(wm), clamped to the newest window
// that can hold data so that a +∞ closing watermark fires a finite
// range.
type Lifecycle struct {
	spec     Spec
	started  bool  // a tuple has arrived: nextFire is anchored
	fired    bool  // some window has closed: lateness is defined from here on
	nextFire ID    // the oldest window still open
	seq      int64 // tuples seen, late ones included: the next count-domain position
	maxPos   int64 // highest position seen (clamps the fire range)
	late     int64 // tuples dropped as late
}

// NewLifecycle returns the lifecycle of a stream that has not started.
func NewLifecycle(spec Spec) Lifecycle { return Lifecycle{spec: spec} }

// Admit is the arrival half (Alg. 1's window assignment): pos are the
// positions of a run of consecutive tuples that share the window
// assignment [lo, hi], as Spec.EachRun or Spec.Assign gives it. It
// returns the oldest window of the run that is still open, or false
// when every window of the run has closed and the run is dropped (and
// counted) as late.
func (l *Lifecycle) Admit(pos []int64, lo, hi ID) (ID, bool) {
	if l.seq == 0 {
		l.maxPos = pos[0]
	}
	l.seq += int64(len(pos))
	for _, p := range pos {
		if p > l.maxPos {
			l.maxPos = p
		}
	}
	if !l.started {
		l.started, l.nextFire = true, lo
	} else if lo < l.nextFire && !l.fired {
		l.nextFire = lo // nothing below has closed yet
	}
	if hi < l.nextFire {
		l.late += int64(len(pos))
		return 0, false
	}
	return max(lo, l.nextFire), true
}

// Complete is the trigger half (Alg. 2): the inclusive id range the
// watermark wm closes, false when it closes nothing. The range is
// closed for good on return. In the count domain wm is the number of
// tuples seen (Seq).
func (l *Lifecycle) Complete(wm int64) (first, last ID, ok bool) {
	if !l.started {
		return 0, 0, false
	}
	last = l.spec.FirstCompleteBy(wm)
	if _, newest := l.spec.Assign(l.maxPos); last > newest {
		last = newest
	}
	if last < l.nextFire {
		return 0, 0, false
	}
	first = l.nextFire
	l.fired, l.nextFire = true, last+1
	return first, last, true
}

// NextOpen returns the oldest window still open: state that lies wholly
// before its start can be evicted.
func (l *Lifecycle) NextOpen() ID { return l.nextFire }

// OpenAfter returns the oldest window that is still open once wm has
// closed what it closes — where a read-ahead for the next fires starts
// — and false before the stream has.
func (l *Lifecycle) OpenAfter(wm int64) (ID, bool) {
	return max(l.spec.FirstCompleteBy(wm)+1, l.nextFire), l.started
}

// Seq returns the number of tuples seen: the watermark of the count
// domain.
func (l *Lifecycle) Seq() int64 { return l.seq }

// Pos returns the position of the tuple that arrives ahead places after
// the next one and carries timestamp ts: ts itself, or in the count
// domain the tuple's sequence number.
func (l *Lifecycle) Pos(ts int64, ahead int) int64 {
	if l.spec.Domain == CountDomain {
		return l.seq + int64(ahead)
	}
	return ts
}

// Late returns the number of tuples dropped as late.
func (l *Lifecycle) Late() int64 { return l.late }

// Cursor is a Lifecycle's state as the snapshot codecs carry it; each
// codec writes the six values in the order its format fixed.
type Cursor struct {
	Started, Fired    bool
	NextFire          ID
	Seq, MaxPos, Late int64
}

// Cursor returns the state to snapshot.
func (l *Lifecycle) Cursor() Cursor {
	return Cursor{l.started, l.fired, l.nextFire, l.seq, l.maxPos, l.late}
}

// SetCursor restores c, or rejects it and leaves l as it was.
func (l *Lifecycle) SetCursor(c Cursor) error {
	if c.Seq < 0 || c.Late < 0 {
		return fmt.Errorf("%w: negative window lifecycle counter", tuple.ErrCorrupt)
	}
	l.started, l.fired, l.nextFire, l.seq, l.maxPos, l.late = c.Started, c.Fired, c.NextFire, c.Seq, c.MaxPos, c.Late
	return nil
}

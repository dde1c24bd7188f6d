package window

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"spear/internal/tuple"
)

// lifecycleModel is the window lifecycle as every manager used to spell
// it out, one tuple at a time. Lifecycle, driven a run at a time, is
// held to it.
type lifecycleModel struct {
	spec              Spec
	started, fired    bool
	nextFire          ID
	seq, maxPos, late int64
}

func (m *lifecycleModel) tuple(pos int64) (lo ID, ok bool) {
	if m.seq++; pos > m.maxPos || m.seq == 1 {
		m.maxPos = pos
	}
	lo, hi := m.spec.Assign(pos)
	if !m.started {
		m.started, m.nextFire = true, lo
	} else if lo < m.nextFire && !m.fired {
		m.nextFire = lo
	}
	if hi < m.nextFire {
		m.late++
		return 0, false
	}
	return max(lo, m.nextFire), true
}

func (m *lifecycleModel) watermark(wm int64) (fire [2]ID, ok bool) {
	last := m.spec.FirstCompleteBy(wm)
	if _, hiData := m.spec.Assign(m.maxPos); last > hiData {
		last = hiData
	}
	if !m.started || last < m.nextFire {
		return fire, false
	}
	fire = [2]ID{m.nextFire, last}
	m.fired, m.nextFire = true, last+1
	return fire, true
}

// TestLifecycleMatchesPerTupleModel drives a Lifecycle through
// Spec.EachRun over batches of random size, and the model through the
// same positions one by one, for random specs, streams that start below
// zero, random disorder and random watermarks: every tuple gets the
// same admit-or-late verdict and the same first open window, every
// watermark closes the same range, and the six cursors agree after
// every batch.
func TestLifecycleMatchesPerTupleModel(t *testing.T) {
	var late, clipped, fires int64 // what the streams exercised, over all seeds
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := Spec{Domain: Domain(rng.Intn(2)), Range: 1 + rng.Int63n(50)}
		spec.Slide = 1 + rng.Int63n(spec.Range)
		l := NewLifecycle(spec)
		m := &lifecycleModel{spec: spec}
		var got, want [][2]ID // the ranges fired
		clock := rng.Int63n(400) - 300
		disorder := rng.Int63n(3 * spec.Range)
		for batch := 0; batch < 60; batch++ {
			ts := make([]int64, 1+rng.Intn(40))
			pos := make([]int64, len(ts))
			for i := range ts {
				clock += rng.Int63n(4)
				if rng.Intn(50) == 0 {
					clock += rng.Int63n(5 * spec.Range) // a gap
				}
				ts[i] = clock - rng.Int63n(disorder+1)
				pos[i] = l.Pos(ts[i], i)
			}
			spec.EachRun(pos, func(i0, i1 int, lo, hi ID) {
				first, ok := l.Admit(pos[i0:i1], lo, hi)
				for _, p := range pos[i0:i1] {
					wantFirst, wantOK := m.tuple(p)
					if ok != wantOK || (ok && first != wantFirst) {
						t.Fatalf("seed %d %s position %d: admitted %v from window %d, model %v from %d", seed, spec, p, ok, first, wantOK, wantFirst)
					}
					if ok && first > lo {
						clipped++
					}
					if spec.Domain == CountDomain {
						if f, ok := m.watermark(m.seq); ok {
							want = append(want, f)
						}
					}
				}
				if spec.Domain == CountDomain {
					if first, last, ok := l.Complete(l.Seq()); ok {
						got = append(got, [2]ID{first, last})
					}
				}
			})
			if spec.Domain == TimeDomain && rng.Intn(3) == 0 {
				wm := clock - rng.Int63n(2*disorder+1)
				if rng.Intn(40) == 0 {
					wm = math.MaxInt64
				}
				if first, last, ok := l.Complete(wm); ok {
					got = append(got, [2]ID{first, last})
				}
				if f, ok := m.watermark(wm); ok {
					want = append(want, f)
				}
			}
			if c := l.Cursor(); c != (Cursor{m.started, m.fired, m.nextFire, m.seq, m.maxPos, m.late}) || l.NextOpen() != m.nextFire || l.Late() != m.late {
				t.Fatalf("seed %d %s after batch %d: cursor %+v, model %+v", seed, spec, batch, c, *m)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d %s after batch %d: fired %v, model %v", seed, spec, batch, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: fire %d closed %v, model %v", seed, spec, i, got[i], want[i])
				}
			}
		}
		late, fires = late+m.late, fires+int64(len(want))
	}
	if late < 1000 || clipped < 1000 || fires < 1000 {
		t.Errorf("the streams dropped %d tuples as late, clipped %d to their open windows and fired %d times: too few to mean anything", late, clipped, fires)
	}
}

// TestLifecycleCursorRoundTrip: a cursor restores into a fresh lifecycle
// as it was taken, and one with a negative counter is rejected whole.
func TestLifecycleCursorRoundTrip(t *testing.T) {
	spec := Spec{Domain: TimeDomain, Range: 30, Slide: 10}
	l := NewLifecycle(spec)
	l.Admit([]int64{-5, 7}, -2, 0)
	l.Complete(20)
	l.Admit([]int64{-100}, -12, -10) // late
	c := l.Cursor()
	if c != (Cursor{Started: true, Fired: true, NextFire: 0, Seq: 3, MaxPos: 7, Late: 1}) {
		t.Fatalf("cursor %+v", c)
	}
	r := NewLifecycle(spec)
	if err := r.SetCursor(c); err != nil || r.Cursor() != c {
		t.Fatalf("restored %+v (err %v), want %+v", r.Cursor(), err, c)
	}
	for _, bad := range []Cursor{{Seq: -1}, {Late: -1}} {
		if err := r.SetCursor(bad); !errors.Is(err, tuple.ErrCorrupt) || r.Cursor() != c {
			t.Errorf("SetCursor(%+v) = %v and left %+v", bad, err, r.Cursor())
		}
	}
}

package spe

import (
	"strings"
	"testing"
	"time"

	"spear/internal/tuple"
)

// dataMsg is a run from sender holding one tuple per timestamp.
func dataMsg(sender int, ts ...int64) Batch {
	run := make([]tuple.Tuple, len(ts))
	for i, v := range ts {
		run[i] = tuple.New(v)
	}
	return Batch{Rows: run, Sender: sender}
}

func barrierMsg(sender int, id uint64) Batch {
	return Batch{Ctl: Barrier, Barrier: id, Sender: sender}
}

// feed pushes batches through the aligner, collecting released events.
func feed(t *testing.T, a *barrierAligner, msgs ...Batch) []alignEvent {
	t.Helper()
	var out []alignEvent
	for _, m := range msgs {
		evs, err := a.Observe(m)
		if err != nil {
			t.Fatalf("Observe(%+v): %v", m, err)
		}
		out = append(out, evs...)
	}
	return out
}

// render flattens events to a compact string for golden comparison:
// data tuples as their timestamp (a run's joined by commas), watermarks
// as w<ts>, snapshots as S<id>.
func render(evs []alignEvent) string {
	var parts []string
	for _, ev := range evs {
		switch {
		case ev.snapshot:
			parts = append(parts, "S"+itoa(int64(ev.id)))
		case ev.b.Ctl == Watermark:
			parts = append(parts, "w"+itoa(ev.b.WM))
		default:
			var run []string
			for _, tu := range ev.b.Rows {
				run = append(run, itoa(tu.Ts))
			}
			parts = append(parts, strings.Join(run, ","))
		}
	}
	return strings.Join(parts, " ")
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestAlignerSingleSenderPassThrough(t *testing.T) {
	a := newBarrierAligner(1, nil, nil)
	evs := feed(t, a,
		dataMsg(0, 1), dataMsg(0, 2), barrierMsg(0, 7), dataMsg(0, 3))
	if got, want := render(evs), "1 2 S7 3"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if a.Aligning() {
		t.Fatal("aligner stuck aligning after single-sender barrier")
	}
}

func TestAlignerBuffersPostBarrierTraffic(t *testing.T) {
	a := newBarrierAligner(2, nil, nil)
	// Sender 0 delivers its barrier first; its subsequent data must be
	// held until sender 1 catches up, while sender 1's pre-barrier data
	// still flows.
	evs := feed(t, a,
		dataMsg(0, 1),
		barrierMsg(0, 1),
		dataMsg(0, 10),                          // post-barrier: buffered
		dataMsg(1, 2),                           // pre-barrier: released
		Batch{Ctl: Watermark, WM: 5, Sender: 0}, // post-barrier wm: buffered
		barrierMsg(1, 1),
		dataMsg(1, 11),
	)
	if got, want := render(evs), "1 2 S1 10 w5 11"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestAlignerNestedRounds(t *testing.T) {
	a := newBarrierAligner(2, nil, nil)
	// Sender 0 races two whole checkpoints ahead: barrier 2 arrives
	// while round 1 is still aligning and must start round 2 after
	// round 1's snapshot point.
	evs := feed(t, a,
		barrierMsg(0, 1),
		dataMsg(0, 10),
		barrierMsg(0, 2), // future barrier from a passed sender: held
		dataMsg(0, 20),
		barrierMsg(1, 1), // completes round 1, replays backlog
		dataMsg(1, 11),   // pre-barrier-2 data from sender 1
		barrierMsg(1, 2), // completes round 2, releases sender 0's 20
	)
	// 20 is post-barrier-2 traffic from sender 0, so it belongs after
	// the round-2 snapshot point; 11 is pre-barrier-2, so before it.
	if got, want := render(evs), "S1 10 11 S2 20"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestAlignerErrors(t *testing.T) {
	t.Run("duplicate barrier", func(t *testing.T) {
		a := newBarrierAligner(2, nil, nil)
		feed(t, a, barrierMsg(0, 1))
		if _, err := a.Observe(barrierMsg(0, 1)); err == nil {
			t.Fatal("duplicate barrier accepted")
		}
	})
	t.Run("skipped barrier", func(t *testing.T) {
		a := newBarrierAligner(2, nil, nil)
		feed(t, a, barrierMsg(0, 1))
		if _, err := a.Observe(barrierMsg(1, 2)); err == nil {
			t.Fatal("sender skipping a barrier accepted")
		}
	})
	t.Run("sender out of range", func(t *testing.T) {
		a := newBarrierAligner(2, nil, nil)
		if _, err := a.Observe(dataMsg(2, 1)); err == nil {
			t.Fatal("out-of-range sender accepted")
		}
	})
}

func TestAlignerStallTelemetry(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	var stall time.Duration
	a := newBarrierAligner(2, clock, func(d time.Duration) { stall = d })
	feed(t, a, barrierMsg(0, 1))
	now = now.Add(250 * time.Millisecond)
	feed(t, a, barrierMsg(1, 1))
	if stall != 250*time.Millisecond {
		t.Fatalf("stall = %v, want 250ms", stall)
	}
}

func TestAlignerBuffersRunsInArrivalOrder(t *testing.T) {
	a := newBarrierAligner(3, nil, nil)
	// Senders 0 and 1 pass the barrier; whole runs from both pile up
	// behind it, interleaved, while sender 2's pre-barrier runs still
	// flow. The release after the snapshot point is arrival order, each
	// run intact.
	evs := feed(t, a,
		dataMsg(2, 1, 2),
		barrierMsg(0, 4),
		dataMsg(0, 10, 11, 12), // buffered
		dataMsg(2, 3),          // pre-barrier: released
		barrierMsg(1, 4),
		dataMsg(1, 20, 21),                      // buffered
		dataMsg(0, 13),                          // buffered
		Batch{Ctl: Watermark, WM: 9, Sender: 1}, // buffered
		dataMsg(2, 4, 5),                        // pre-barrier: released
		dataMsg(1, 22),                          // buffered
		barrierMsg(2, 4),
		dataMsg(2, 30),
	)
	if got, want := render(evs), "1,2 3 4,5 S4 10,11,12 20,21 13 w9 22 30"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if a.Aligning() || len(a.buffered) != 0 {
		t.Fatalf("aligning=%v with %d batches still buffered", a.Aligning(), len(a.buffered))
	}
}

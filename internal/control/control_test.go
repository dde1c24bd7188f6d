package control

import (
	"testing"
	"time"

	"spear/internal/leakcheck"
	"spear/internal/obs"
)

// harness drives a controller with synthetic snapshots on a fake clock.
type harness struct {
	ctrl      *Controller
	cells     []*Cell
	now       time.Time
	srcTuples int64
}

func newHarness(cfg Config, nCells, budget int) *harness {
	h := &harness{now: time.Unix(0, 0)}
	for i := 0; i < nCells; i++ {
		h.cells = append(h.cells, NewCell(budget))
	}
	cfg.clock = func() time.Time { return h.now }
	h.ctrl = New(cfg, h.cells)
	return h
}

// observe feeds one snapshot with the given worst lag and queue fill,
// then advances the clock past any cooldown so the next call can act.
func (h *harness) observe(lag time.Duration, fill float64) {
	h.ctrl.Observe(&obs.Snapshot{
		Workers: []obs.WorkerWatermark{{Name: "w", LagNanos: int64(lag), Valid: true}},
		Edges:   []obs.EdgeSnapshot{{Name: "e", Fill: fill}},
	})
	h.now = h.now.Add(time.Second)
}

// TestCellIsLockFree holds Cell to its contract: the controller's writes
// and the managers' reads never wait on each other.
func TestCellIsLockFree(t *testing.T) {
	c := NewCell(100)
	leakcheck.NoBlocking(t, func(_, i int) {
		c.Set(i, i&1 == 0)
		_, _ = c.Budget(), c.Shedding()
	})
}

// TestTickEvery pins the period rule against the settings it replaced:
// a 1ms SLO observed every 2ms, 150ms every 50ms, an inert 1h every
// 250ms.
func TestTickEvery(t *testing.T) {
	for _, tc := range []struct{ slo, want time.Duration }{
		{time.Millisecond, 2 * time.Millisecond},
		{150 * time.Millisecond, 50 * time.Millisecond},
		{time.Hour, 250 * time.Millisecond},
	} {
		if got := tickEvery(tc.slo); got != tc.want {
			t.Errorf("tickEvery(%v) = %v, want %v", tc.slo, got, tc.want)
		}
	}
}

// TestStartObservesAtStartAndStop: with no tick elapsed, the controller
// sees exactly two snapshots, the one Start takes and the one stop
// takes, and leaves no goroutine behind. Lag sits in the hysteresis
// band, so each observation is one hold.
func TestStartObservesAtStartAndStop(t *testing.T) {
	leakcheck.Check(t)
	ins := obs.NewInstruments()
	ins.Worker("w[0]").SetWatermark(0)
	ins.PublishSource(1, int64(45*time.Minute))
	ctrl := New(Config{SLO: time.Hour}, []*Cell{NewCell(100)})
	stop := ctrl.Start(ins)
	if got := ctrl.ControlSnapshot().Hold; got != 1 {
		t.Fatalf("%d observations after Start, want 1", got)
	}
	stop()
	if got := ctrl.ControlSnapshot().Hold; got != 2 {
		t.Fatalf("%d observations after stop, want 2", got)
	}
}

func TestControllerTightensUnderOverload(t *testing.T) {
	h := newHarness(Config{SLO: 100 * time.Millisecond, Min: 10}, 3, 1000)
	h.observe(500*time.Millisecond, 0.1)
	for i, c := range h.cells {
		if c.Budget() != 500 {
			t.Fatalf("cell %d budget %d after tighten, want 1000×0.5 = 500", i, c.Budget())
		}
	}
	// Keeps halving to the floor, never below.
	for i := 0; i < 10; i++ {
		h.observe(500*time.Millisecond, 0.1)
	}
	if got := h.cells[0].Budget(); got != 10 {
		t.Fatalf("budget %d after sustained overload, want floor 10", got)
	}
}

func TestControllerQueueFillAloneIsOverload(t *testing.T) {
	h := newHarness(Config{SLO: 100 * time.Millisecond}, 1, 800)
	h.observe(0, 0.95) // no lag, but an edge near saturation
	if got := h.cells[0].Budget(); got != 400 {
		t.Fatalf("budget %d, want 400: queue fill ≥ queueHigh must tighten", got)
	}
}

func TestControllerShedsOnlyAtFloor(t *testing.T) {
	h := newHarness(Config{SLO: 100 * time.Millisecond, Min: 50}, 1, 100)
	// Lag far past shedFrac·SLO, but the budget is above Min: the
	// first decisions must spend the budget headroom, not shed.
	h.observe(time.Second, 0.1)
	if h.cells[0].Shedding() {
		t.Fatal("shed before reaching the budget floor")
	}
	if h.cells[0].Budget() != 50 {
		t.Fatalf("budget %d, want 50", h.cells[0].Budget())
	}
	// At the floor with lag still over shedFrac·SLO: escalate.
	h.observe(time.Second, 0.1)
	if !h.cells[0].Shedding() {
		t.Fatal("must shed once tightened to the floor and still over shedFrac·SLO")
	}
	snap := h.ctrl.ControlSnapshot()
	if snap.Tighten != 1 || snap.ShedOn != 1 {
		t.Fatalf("decision counters tighten=%d shedOn=%d, want 1/1", snap.Tighten, snap.ShedOn)
	}
}

func TestControllerNoShedUnderMildOverload(t *testing.T) {
	h := newHarness(Config{SLO: 100 * time.Millisecond, Min: 50}, 1, 50)
	// Over SLO but under shedFrac·SLO at the floor: hold, don't shed.
	h.observe(150*time.Millisecond, 0.1)
	if h.cells[0].Shedding() {
		t.Fatal("mild overload at the floor must not escalate to shedding")
	}
}

// TestControllerShedsOnFullEdgeAtFloor: a hop holds about 1 K tuples, so
// behind a full one the backlog waits upstream of the source, where
// worker lag cannot see it. At the floor, with lag under shedFrac·SLO, an
// edge that stays at queueHigh for longer than shedFrac·SLO must escalate
// to shedding on its own; one seen full for the first time must not.
func TestControllerShedsOnFullEdgeAtFloor(t *testing.T) {
	h := newHarness(Config{SLO: 100 * time.Millisecond, Min: 50}, 1, 50)
	h.observe(10*time.Millisecond, 0.95)
	if h.cells[0].Shedding() {
		t.Fatal("an edge full for no time at all must not shed")
	}
	h.observe(10*time.Millisecond, 0.95) // full for 1s > shedFrac·SLO
	if !h.cells[0].Shedding() {
		t.Fatal("an edge full past shedFrac·SLO at the budget floor must escalate to shedding")
	}
	if snap := h.ctrl.ControlSnapshot(); snap.ShedOn != 1 || snap.Tighten != 0 {
		t.Fatalf("decision counters shedOn=%d tighten=%d, want 1/0", snap.ShedOn, snap.Tighten)
	}
}

// TestControllerFullEdgeWithinSLONeverSheds: a source that outruns its
// workers keeps an edge full for the whole run. While that span is under
// shedFrac·SLO the SLO is plainly met and the controller must not shed.
// The span restarts only once an observation reads headroom, fill below
// queueHigh/2; a dip under queueHigh alone does not end it.
func TestControllerFullEdgeWithinSLONeverSheds(t *testing.T) {
	h := newHarness(Config{SLO: time.Hour, Min: 50}, 1, 50)
	for i := 0; i < 20; i++ {
		h.observe(0, 1)
	}
	if h.cells[0].Shedding() {
		t.Fatal("an edge full for 20s under a 1h SLO shed")
	}
	h = newHarness(Config{SLO: 400 * time.Millisecond, Min: 50}, 1, 50)
	for i := 0; i < 10; i++ {
		for _, fill := range []float64{1, 1, 1, 0.4} {
			h.observe(0, fill)
			h.now = h.now.Add(-700 * time.Millisecond) // 300ms between observations
		}
	}
	if h.cells[0].Shedding() {
		t.Fatal("an edge full for 600ms at a time shed under an 800ms bound")
	}
	for _, fill := range []float64{1, 1, 1, 0.5, 1} {
		h.observe(0, fill)
		h.now = h.now.Add(-700 * time.Millisecond)
	}
	if !h.cells[0].Shedding() {
		t.Fatal("an edge full for 1.2s, dipping to 0.5 once, did not shed under an 800ms bound")
	}
}

func TestControllerRecoversInReverseOrder(t *testing.T) {
	h := newHarness(Config{SLO: 100 * time.Millisecond, Min: 50, Max: 400}, 1, 50)
	h.cells[0].Set(50, true) // at the floor, shedding
	// Headroom: first decision turns shedding off, budget untouched.
	h.observe(10*time.Millisecond, 0.1)
	if h.cells[0].Shedding() {
		t.Fatal("headroom must stop shedding first")
	}
	if h.cells[0].Budget() != 50 {
		t.Fatalf("budget %d moved in the same decision as shedOff", h.cells[0].Budget())
	}
	// Next decisions grow the budget back toward Max, never past it.
	for i := 0; i < 10; i++ {
		h.observe(10*time.Millisecond, 0.1)
	}
	if got := h.cells[0].Budget(); got != 400 {
		t.Fatalf("budget %d after sustained headroom, want Max 400", got)
	}
	snap := h.ctrl.ControlSnapshot()
	if snap.ShedOff != 1 || snap.Expand == 0 {
		t.Fatalf("decision counters shedOff=%d expand=%d", snap.ShedOff, snap.Expand)
	}
}

// observeRate is observe plus a source-tuple count, so the controller
// sees an input rate: the snapshot is stamped with the harness clock and
// the cumulative tuple count advances by rate×1s per call.
func (h *harness) observeRate(lag time.Duration, fill float64, rate int64) {
	h.srcTuples += rate // 1s between snapshots → delta == rate
	h.ctrl.Observe(&obs.Snapshot{
		At:           h.now,
		SourceTuples: h.srcTuples,
		Workers:      []obs.WorkerWatermark{{Name: "w", LagNanos: int64(lag), Valid: true}},
		Edges:        []obs.EdgeSnapshot{{Name: "e", Fill: fill}},
	})
	h.now = h.now.Add(time.Second)
}

func TestControllerRateGatesShedRecovery(t *testing.T) {
	// A pipeline that is shedding looks healthy: lag collapses because
	// the expensive archive writes stopped. Dropping shedding on that
	// headroom alone relapses immediately. The controller must remember
	// the input rate at which shedding engaged and hold shedding until
	// the rate itself subsides.
	h := newHarness(Config{SLO: 100 * time.Millisecond, Min: 50, Max: 400}, 1, 50)
	h.observeRate(70*time.Millisecond, 0.1, 80_000) // in-band hold: primes the rate estimate
	h.observeRate(time.Second, 0.1, 80_000)         // at the floor → shedOn @ 80k/s
	if !h.cells[0].Shedding() {
		t.Fatal("must shed at the floor under deep overload")
	}
	// Shedding restored headroom, but the spike is still arriving: the
	// controller must hold shedding, not oscillate.
	for i := 0; i < 5; i++ {
		h.observeRate(5*time.Millisecond, 0.05, 80_000)
		if !h.cells[0].Shedding() {
			t.Fatalf("observation %d: shed dropped while the input rate held at 80k/s", i)
		}
	}
	if snap := h.ctrl.ControlSnapshot(); snap.ShedRate != 80_000 {
		t.Fatalf("ShedRate = %v, want the engage rate 80000", snap.ShedRate)
	}
	// Rate falls below shedRecoverFrac(0.8)·80k: now recovery proceeds,
	// shedding first, then the budget grows back.
	h.observeRate(5*time.Millisecond, 0.05, 10_000)
	if h.cells[0].Shedding() {
		t.Fatal("shed must drop once the input rate subsides under headroom")
	}
	if h.cells[0].Budget() != 50 {
		t.Fatalf("budget %d moved in the same decision as shedOff", h.cells[0].Budget())
	}
	for i := 0; i < 10; i++ {
		h.observeRate(5*time.Millisecond, 0.05, 10_000)
	}
	if got := h.cells[0].Budget(); got != 400 {
		t.Fatalf("budget %d after recovery, want Max 400", got)
	}
}

func TestControllerRateJustBelowGateStillHolds(t *testing.T) {
	// 0.9× the engage rate is above the default shedRecoverFrac of 0.8:
	// still too close to the spike to recover.
	h := newHarness(Config{SLO: 100 * time.Millisecond, Min: 50}, 1, 50)
	h.observeRate(70*time.Millisecond, 0.1, 100_000) // in-band hold: primes the rate estimate
	h.observeRate(time.Second, 0.1, 100_000)         // shedOn @ 100k/s
	if !h.cells[0].Shedding() {
		t.Fatal("must shed at the floor under deep overload")
	}
	h.observeRate(5*time.Millisecond, 0.05, 90_000)
	if !h.cells[0].Shedding() {
		t.Fatal("90k/s is ≥ 0.8×100k: shed must hold")
	}
	h.observeRate(5*time.Millisecond, 0.05, 79_000)
	if h.cells[0].Shedding() {
		t.Fatal("79k/s is < 0.8×100k: shed must drop")
	}
}

func TestControllerHysteresisBandHolds(t *testing.T) {
	h := newHarness(Config{SLO: 100 * time.Millisecond, Max: 1000}, 1, 500)
	// Lag between lowFrac·SLO and SLO, calm queues: the dead band.
	for i := 0; i < 5; i++ {
		h.observe(70*time.Millisecond, 0.1)
	}
	if got := h.cells[0].Budget(); got != 500 {
		t.Fatalf("budget %d drifted inside the hysteresis band", got)
	}
	if snap := h.ctrl.ControlSnapshot(); snap.Hold != 5 {
		t.Fatalf("hold count %d, want 5", snap.Hold)
	}
}

func TestControllerCooldownSpacesDecisions(t *testing.T) {
	h := newHarness(Config{SLO: 100 * time.Millisecond, cooldown: 10 * time.Second}, 1, 1000)
	h.observe(time.Second, 0.1) // acts; clock advances 1s, inside cooldown
	h.observe(time.Second, 0.1) // must hold
	if got := h.cells[0].Budget(); got != 500 {
		t.Fatalf("budget %d: second decision inside cooldown must not act", got)
	}
	h.now = h.now.Add(10 * time.Second)
	h.observe(time.Second, 0.1)
	if got := h.cells[0].Budget(); got != 250 {
		t.Fatalf("budget %d: cooldown expiry must re-enable decisions", got)
	}
}

func TestControllerDefaultMaxIsStartingBudget(t *testing.T) {
	h := newHarness(Config{SLO: 100 * time.Millisecond}, 1, 640)
	h.observe(time.Second, 0.1) // tighten to 320
	// Sustained headroom: recovery must stop at the starting budget.
	for i := 0; i < 10; i++ {
		h.observe(0, 0)
	}
	if got := h.cells[0].Budget(); got != 640 {
		t.Fatalf("budget %d recovered past the starting budget 640", got)
	}
}

func TestControllerRespectsExternalCellRewrite(t *testing.T) {
	// Checkpoint recovery rewrites cells underneath the controller; the
	// next decision must start from the rewritten state, not remembered
	// state.
	h := newHarness(Config{SLO: 100 * time.Millisecond, Max: 1000}, 1, 1000)
	h.observe(time.Second, 0.1) // 1000 → 500
	h.cells[0].Set(64, false)   // recovery rewind
	h.observe(time.Second, 0.1)
	if got := h.cells[0].Budget(); got != 32 {
		t.Fatalf("budget %d, want 64×0.5 = 32: decision must start from the cell", got)
	}
}

func TestControllerIgnoresInvalidWorkers(t *testing.T) {
	h := newHarness(Config{SLO: 100 * time.Millisecond}, 1, 100)
	h.ctrl.Observe(&obs.Snapshot{
		Workers: []obs.WorkerWatermark{{Name: "w", LagNanos: int64(time.Hour), Valid: false}},
	})
	if got := h.cells[0].Budget(); got != 100 {
		t.Fatalf("budget %d moved on a snapshot with no valid watermark", got)
	}
}

func TestControlSnapshotReflectsState(t *testing.T) {
	h := newHarness(Config{SLO: 200 * time.Millisecond, Min: 5, Max: 500}, 2, 500)
	h.observe(time.Second, 0.33)
	s := h.ctrl.ControlSnapshot()
	if s.SLONanos != int64(200*time.Millisecond) {
		t.Errorf("SLONanos = %d", s.SLONanos)
	}
	if s.TargetBudget != 250 || s.MinBudget != 5 || s.MaxBudget != 500 {
		t.Errorf("budget bounds %d [%d, %d]", s.TargetBudget, s.MinBudget, s.MaxBudget)
	}
	if s.LagNanos != int64(time.Second) {
		t.Errorf("LagNanos = %d", s.LagNanos)
	}
	if s.QueueFill < 0.32 || s.QueueFill > 0.34 {
		t.Errorf("QueueFill = %v, want ≈0.33", s.QueueFill)
	}
}

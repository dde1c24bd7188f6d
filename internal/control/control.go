// Package control implements the adaptive accuracy controller: a
// feedback loop from the observability plane's latency/lag snapshots to
// every manager's sample budget. SPEAr's budget b is static per query
// (§3: the accelerate-vs-exact decision is a binary against a fixed
// sample size); this package closes the loop in the spirit of
// StreamApprox's adaptive stratified sampling — under overload the
// controller tightens budgets toward a floor to hold a latency SLO,
// and past the floor it sheds archive writes (trading the exact
// fallback for sample-only answers with the realized bound reported);
// when the pipeline has headroom it recovers in the reverse order.
// Hysteresis bands and a cooldown keep it from thrashing.
//
// The data plane never calls into the controller. Each manager holds a
// *Cell — a pair of atomics the controller writes and the manager reads
// at batch boundaries — so a budget read on the ingest hot paths is
// one atomic load, never a lock, an allocation or a write (core's
// TestIngestNeverWritesTheCell and TestIngestAllocsPerTuple).
package control

import (
	"math"
	"sync/atomic"
	"time"

	"spear/internal/obs"
)

// Cell is the lock-free mailbox between the controller and one
// manager: the target tuple budget and the shedding flag. The
// controller writes it from its tick goroutine; the manager reads
// it at the top of every OnTupleBatch call and applies
// changes (reservoir resizes) outside any per-tuple loop.
type Cell struct {
	budget atomic.Int64
	shed   atomic.Bool
}

// NewCell returns a cell holding the starting budget.
func NewCell(budget int) *Cell {
	c := &Cell{}
	c.budget.Store(int64(budget))
	return c
}

// Budget returns the current target budget in tuples.
func (c *Cell) Budget() int { return int(c.budget.Load()) }

// Shedding reports whether archive writes should currently be shed.
func (c *Cell) Shedding() bool { return c.shed.Load() }

// Set publishes a new target budget and shedding state.
func (c *Cell) Set(budget int, shed bool) {
	c.budget.Store(int64(budget))
	c.shed.Store(shed)
}

// Config parameterizes the controller: the SLO and the budget's bounds.
// Everything else about how it reacts is fixed (the constants below).
type Config struct {
	// SLO is the target end-to-end latency: the controller acts when
	// the worst worker's watermark lag exceeds it. Required.
	SLO time.Duration
	// Min and Max bound the tuple budget. Min defaults to 1; Max to
	// the cells' starting budget (read at the first decision).
	Min, Max int

	// cooldown and clock are seams for the package's own tests:
	// defaultCooldown and time.Now otherwise.
	cooldown time.Duration
	clock    func() time.Time
}

// The controller's fixed reactions; DESIGN §17.2 gives each its reason.
const (
	// shrink multiplies the budget on a tighten decision and grow on an
	// expand decision: multiplicative decrease, gentler multiplicative
	// recovery.
	shrink = 0.5
	grow   = 1.5
	// lowFrac is the hysteresis floor: lag below lowFrac·SLO (and no
	// queue near saturation) counts as headroom. Between lowFrac·SLO and
	// SLO the controller holds.
	lowFrac = 0.5
	// shedFrac escalates to load shedding: at the Min budget, lag past
	// shedFrac·SLO, or an edge at queueHigh for that long without
	// reading below queueHigh/2, sheds archive writes.
	shedFrac = 2.0
	// queueHigh treats any edge at or above this fill fraction as
	// overload regardless of lag.
	queueHigh = 0.9
	// shedRecoverFrac gates shed recovery on the observed input rate.
	// Lag alone cannot distinguish a pipeline that is healthy from one
	// that is healthy only because it is shedding, so recovering on
	// headroom alone oscillates under a sustained spike: shed, catch
	// up, stop shedding, relapse. The controller remembers the source
	// rate at which shedding engaged and drops shedding only once the
	// current rate falls below shedRecoverFrac of it. When the engage
	// rate is unknown — shedding was restored from a checkpoint or
	// written into the cells externally — headroom alone recovers.
	shedRecoverFrac = 0.8
	// defaultCooldown is the minimum time between decisions that change
	// state, so one action's effect is observed before the next.
	defaultCooldown = 500 * time.Millisecond
)

func (c *Config) defaults() {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.cooldown <= 0 {
		c.cooldown = defaultCooldown
	}
	if c.clock == nil {
		c.clock = time.Now
	}
}

// Decision indices for the controller's action counters.
const (
	decTighten = iota
	decExpand
	decShedOn
	decShedOff
	decHold
	decCount
)

// Controller turns obs-plane snapshots into budget/shed decisions and
// publishes them to every cell. Observe is called from one goroutine
// (Start's tick); all other state is read atomically by the obs
// snapshot path, so the controller itself needs no lock.
type Controller struct {
	cfg   Config
	cells []*Cell

	// Decision-loop state, touched only from Observe.
	lastChange    time.Time
	prevSrcAt     time.Time
	prevSrcTuples int64
	srcRate       float64   // tuples/s over the last observation interval
	rateAtShed    float64   // source rate when shedding last engaged; 0 = unknown
	fullSince     time.Time // when an edge reached queueHigh; zero once fill reads below queueHigh/2

	// Telemetry, read concurrently by ControlSnapshot.
	decisions    [decCount]atomic.Int64
	lagNanos     atomic.Int64
	fillPct      atomic.Int64 // worst edge fill ×1e4
	target       atomic.Int64
	shedding     atomic.Bool
	srcRateBits  atomic.Uint64 // float64 bits
	shedRateBits atomic.Uint64 // float64 bits
}

// New returns a controller driving the given cells. All cells receive
// the same target: the control decision is global (the slowest worker
// gates the watermark, so per-worker budgets would only skew samples
// without helping latency).
func New(cfg Config, cells []*Cell) *Controller {
	cfg.defaults()
	c := &Controller{cfg: cfg, cells: cells}
	if len(cells) > 0 {
		c.target.Store(int64(cells[0].Budget()))
	}
	return c
}

// tickEvery is the period Start observes at: a third of the SLO, so a
// breach is seen well within it, clamped to [2ms, 250ms].
func tickEvery(slo time.Duration) time.Duration {
	return min(max(slo/3, 2*time.Millisecond), 250*time.Millisecond)
}

// Start feeds the controller from ins: one observation at once, one
// every tickEvery(SLO), and a last one when stop is called. stop returns
// once the tick goroutine has exited; call it once.
func (c *Controller) Start(ins *obs.Instruments) (stop func()) {
	c.Observe(ins.Snapshot(c.cfg.clock()))
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(tickEvery(c.cfg.SLO))
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.Observe(ins.Snapshot(c.cfg.clock()))
			case <-quit:
				c.Observe(ins.Snapshot(c.cfg.clock()))
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// Observe folds one obs-plane snapshot into a control decision. The
// cells are the source of truth for the current budget (checkpoint
// recovery rewrites them underneath the controller), so each decision
// starts from the cell state rather than remembered state.
func (c *Controller) Observe(s *obs.Snapshot) {
	if s == nil || len(c.cells) == 0 {
		return
	}
	var lag int64
	sawLag := false
	for _, w := range s.Workers {
		if w.Valid {
			sawLag = true
			if w.LagNanos > lag {
				lag = w.LagNanos
			}
		}
	}
	fill := 0.0
	for _, e := range s.Edges {
		if e.Fill > fill {
			fill = e.Fill
		}
	}
	c.lagNanos.Store(lag)
	c.fillPct.Store(int64(fill * 1e4))
	now := c.cfg.clock()
	if fill < queueHigh/2 {
		c.fullSince = time.Time{} // headroom ends a saturated span
	} else if c.fullSince.IsZero() && fill >= queueHigh {
		c.fullSince = now
	}
	if !s.At.IsZero() {
		if !c.prevSrcAt.IsZero() {
			if dt := s.At.Sub(c.prevSrcAt).Seconds(); dt > 0 {
				c.srcRate = float64(s.SourceTuples-c.prevSrcTuples) / dt
				c.srcRateBits.Store(math.Float64bits(c.srcRate))
			}
		}
		c.prevSrcAt, c.prevSrcTuples = s.At, s.SourceTuples
	}
	if !sawLag {
		return // no worker has seen a watermark yet: nothing to react to
	}

	budget := c.cells[0].Budget()
	shed := c.cells[0].Shedding()
	c.target.Store(int64(budget))
	c.shedding.Store(shed)
	if c.cfg.Max <= 0 {
		c.cfg.Max = budget // default ceiling: the budget the query started with
	}

	if !c.lastChange.IsZero() && now.Sub(c.lastChange) < c.cfg.cooldown {
		c.decisions[decHold].Add(1)
		return
	}

	slo := float64(c.cfg.SLO)
	overload := float64(lag) > slo || fill >= queueHigh
	headroom := float64(lag) < lowFrac*slo && fill < queueHigh/2
	// Behind a bounded hop the backlog waits upstream of the source, where
	// lag cannot see it. It formed after the edge last had headroom, so
	// the span since then stands in for lag when shedding.
	backlog := float64(lag)
	if !c.fullSince.IsZero() {
		backlog = math.Max(backlog, float64(now.Sub(c.fullSince)))
	}

	newBudget, newShed := budget, shed
	decision := decHold
	switch {
	case overload:
		if budget > c.cfg.Min {
			newBudget = max(int(float64(budget)*shrink), c.cfg.Min)
			decision = decTighten
		} else if !shed && backlog > shedFrac*slo {
			newShed = true
			decision = decShedOn
			c.rateAtShed = c.srcRate
			c.shedRateBits.Store(math.Float64bits(c.rateAtShed))
		}
	case headroom:
		if shed {
			// Recover in reverse escalation order: stop shedding
			// first, grow the budget back only once that holds — and
			// only once the input rate that forced shedding has
			// actually subsided (see shedRecoverFrac).
			if c.rateAtShed <= 0 || c.srcRate < shedRecoverFrac*c.rateAtShed {
				newShed = false
				decision = decShedOff
			}
		} else if budget < c.cfg.Max {
			newBudget = min(int(float64(budget)*grow)+1, c.cfg.Max)
			decision = decExpand
		}
	}
	c.decisions[decision].Add(1)
	if decision == decHold {
		return
	}
	for _, cell := range c.cells {
		cell.Set(newBudget, newShed)
	}
	c.target.Store(int64(newBudget))
	c.shedding.Store(newShed)
	c.lastChange = now
}

// ControlSnapshot implements obs.ControlSource, exposing the
// controller's state to the snapshot/Prometheus plane.
func (c *Controller) ControlSnapshot() *obs.ControlSnapshot {
	return &obs.ControlSnapshot{
		SLONanos:     int64(c.cfg.SLO),
		TargetBudget: int(c.target.Load()),
		MinBudget:    c.cfg.Min,
		MaxBudget:    c.cfg.Max,
		Shedding:     c.shedding.Load(),
		LagNanos:     c.lagNanos.Load(),
		QueueFill:    float64(c.fillPct.Load()) / 1e4,
		SourceRate:   math.Float64frombits(c.srcRateBits.Load()),
		ShedRate:     math.Float64frombits(c.shedRateBits.Load()),
		Tighten:      c.decisions[decTighten].Load(),
		Expand:       c.decisions[decExpand].Load(),
		ShedOn:       c.decisions[decShedOn].Load(),
		ShedOff:      c.decisions[decShedOff].Load(),
		Hold:         c.decisions[decHold].Load(),
	}
}

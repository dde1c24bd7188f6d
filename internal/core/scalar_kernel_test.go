package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spear/internal/agg"
	"spear/internal/col"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// add is the per-tuple archive append every manager's ingest called
// before its callers became addRun. The per-tuple references below keep
// it, so that addRun is held to it tuple by tuple, chunk boundaries
// included.
func (a *archive) add(t tuple.Tuple) error {
	p := a.paneOf(t.Ts)
	if !a.curOK || p != a.curP {
		a.rollTo(p)
	}
	a.cur = append(a.cur, t)
	if len(a.cur) >= a.chunk {
		return a.flushCur()
	}
	return nil
}

// refIngest is the per-tuple ingest body ScalarManager had before its
// entry points became adapters to ingestRun, kept here as the reference
// the kernel is held to: assignment, admission, one Add per open window
// and one archive add, tuple by tuple, firing after every tuple in the
// count domain. Three edits: the count, which was the n of a full
// Welford; the anchor/lateness decision, which is the lifecycle's Admit
// on a run of one (window.Lifecycle has a per-tuple model of its own to
// answer to, in package window); and the incremental path, one Add into
// the tuple's slice and nothing into the archive such a manager no
// longer has (what the slices assemble to is held to a per-window fold
// in slices_test.go).
func refIngest(m *ScalarManager, t tuple.Tuple) ([]Result, error) {
	m.syncControl()
	pos := m.lc.Pos(t.Ts, 0)
	if m.cfg.Spec.Domain == window.CountDomain {
		t.Ts = pos
	}
	lo, hi := m.cfg.Spec.Assign(pos)
	first, ok := m.lc.Admit([]int64{pos}, lo, hi)
	if !ok {
		return nil, nil
	}
	v := m.cfg.Value(t)
	if !m.cfg.archives() {
		m.sliceFor(lo, hi).Add(v)
		if m.cfg.Spec.Domain == window.CountDomain {
			return m.fire(m.lc.Seq())
		}
		return nil, nil
	}
	for id := first; id <= hi; id++ {
		w, ok := m.wins[id]
		if !ok {
			w = m.newWin(id)
			m.wins[id] = w
		}
		if w.res != nil {
			w.res.Add(v)
		}
		w.n++
		if m.shed {
			w.tainted = true
		}
	}
	if m.shed {
		m.sheds++
	} else if err := m.arc.add(t); err != nil {
		return nil, err
	}
	if m.cfg.Spec.Domain == window.CountDomain {
		return m.fire(m.lc.Seq())
	}
	return nil, nil
}

// kernelOp is one step of a scripted stream: a tuple, or a control
// event that ends the batch being gathered.
type kernelOp struct {
	kind   byte // 't' tuple, 'w' watermark, 's' SetShedding, 'b' SetBudget
	tup    tuple.Tuple
	wm     int64
	on     bool
	budget int
}

// kernelStream scripts n tuples one tick apart, shuffled inside blocks
// of lag ticks, with a watermark lag behind every every-th tuple, a few
// stragglers from before the watermark (late before the first fire
// lowers the anchor, late after it is dropped), a shedding spell, and
// the budget taken to zero and back and then halved. Field 0 is the
// value; field 1 is a group key for the grouped managers: six hot
// groups, and now and then one that is seen once.
func kernelStream(n, lag, every int, seed int64) []kernelOp {
	rng := rand.New(rand.NewSource(seed))
	keys := rand.New(rand.NewSource(seed + 1))
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		key := fmt.Sprintf("g%d", keys.Intn(6))
		if keys.Intn(12) == 0 {
			key = fmt.Sprintf("once%d", i)
		}
		ts[i] = tuple.New(int64(1000+i), tuple.Float(20+rng.NormFloat64()*float64(1+i%5)), tuple.String_(key))
	}
	for i := 0; i+lag <= n; i += lag {
		rng.Shuffle(lag, func(a, b int) { ts[i+a], ts[i+b] = ts[i+b], ts[i+a] })
	}
	var ops []kernelOp
	for i, t := range ts {
		switch i {
		case 5: // before any fire: earlier than the anchor
			ops = append(ops, kernelOp{kind: 't', tup: tuple.New(940, tuple.Float(3), tuple.String_("g0"))})
		case n / 4:
			ops = append(ops, kernelOp{kind: 's', on: true})
		case n/4 + n/16:
			ops = append(ops, kernelOp{kind: 's', on: false})
		case n / 2:
			ops = append(ops, kernelOp{kind: 'b', budget: 0})
		case n/2 + n/10:
			ops = append(ops, kernelOp{kind: 'b', budget: 48})
		case 3 * n / 4:
			ops = append(ops, kernelOp{kind: 'b', budget: 24})
		}
		ops = append(ops, kernelOp{kind: 't', tup: t})
		if i > n/3 && i%97 == 0 { // long closed: dropped
			ops = append(ops, kernelOp{kind: 't', tup: tuple.New(int64(1000+i-n/4), tuple.Float(-1), tuple.String_("g1"))})
		}
		if (i+1)%every == 0 {
			ops = append(ops, kernelOp{kind: 'w', wm: int64(1000 + i + 1 - lag)})
		}
	}
	return append(ops, kernelOp{kind: 'w', wm: math.MaxInt64})
}

// kernelManager is what the kernel identity tests drive and read back.
type kernelManager interface {
	compatManager
	LateDropped() int64
	BudgetMemUsage() int
}

// kernelTrace drives m through ops, handing each maximal stretch of
// tuples (cut at batch tuples) to feed, and returns one line per
// watermark: every field of every result since the previous one, then
// the manager's snapshot.
func kernelTrace(t *testing.T, m kernelManager, ops []kernelOp, batch int, feed func([]tuple.Tuple) ([]Result, error)) []string {
	t.Helper()
	var lines []string
	var sb bytes.Buffer
	emit := func(rs []Result, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			fmt.Fprintf(&sb, "w=%d [%d,%d) n=%d sn=%d %s eps^=%016x eps=%g conf=%g b=%d fetched=%v v=%016x groups=%v",
				r.WindowID, r.Start, r.End, r.N, r.SampleN, r.Mode, math.Float64bits(r.EstError),
				r.Epsilon, r.Confidence, r.Budget, r.FetchedFromStore, math.Float64bits(r.Scalar), r.Groups != nil)
			keys := make([]string, 0, len(r.Groups))
			for k := range r.Groups {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%016x", k, math.Float64bits(r.Groups[k]))
			}
			sb.WriteByte('\n')
		}
	}
	var pend []tuple.Tuple
	flush := func() {
		if len(pend) > 0 {
			emit(feed(pend))
			pend = pend[:0]
		}
	}
	for _, op := range ops {
		if op.kind == 't' {
			if pend = append(pend, op.tup); len(pend) == batch {
				flush()
			}
			continue
		}
		flush()
		switch op.kind {
		case 's':
			m.SetShedding(op.on)
		case 'b':
			m.SetBudget(op.budget)
		case 'w':
			emit(m.OnWatermark(op.wm))
			snap, err := m.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "late=%d mem=%d snap=%x", m.LateDropped(), m.BudgetMemUsage(), snap)
			lines = append(lines, sb.String())
			sb.Reset()
		}
	}
	return lines
}

// TestScalarKernelMatchesPerTupleIngest holds every entry point of the
// scalar manager, at several batch sizes, to the per-tuple reference:
// the same results field for field and the same snapshot bytes at every
// watermark.
func TestScalarKernelMatchesPerTupleIngest(t *testing.T) {
	specs := []window.Spec{
		{Domain: window.TimeDomain, Range: 120, Slide: 40},  // batches straddle one edge, and several
		{Domain: window.TimeDomain, Range: 100, Slide: 100}, // tumbling
		{Domain: window.TimeDomain, Range: 64, Slide: 8},    // 8-fold overlap, a 64-batch spans 8 slides
		{Domain: window.TimeDomain, Range: 90, Slide: 40},   // range not a multiple of the slide
		{Domain: window.CountDomain, Range: 90, Slide: 30},
		{Domain: window.CountDomain, Range: 70, Slide: 70},
	}
	aggs := []struct {
		name string
		f    agg.Func
		raw  bool // DisableIncremental
		aimd bool // a budget policy moves b at every fire
	}{
		{"median", agg.Median(), false, false},
		// In the count domain this is what makes a fire after each run,
		// and not at the end of the batch, visible: the windows a later
		// run of the same batch opens start at the budget the fire set.
		{"median-aimd", agg.Median(), false, true},
		{"mean-sampled", agg.Func{Op: agg.Mean}, true, false},
		{"mean-incremental", agg.Func{Op: agg.Mean}, false, false},
	}
	for _, spec := range specs {
		for _, a := range aggs {
			t.Run(fmt.Sprintf("%s/%s", spec, a.name), func(t *testing.T) {
				mk := func() *ScalarManager {
					cfg := Config{
						Spec: spec, Agg: a.f, Value: tuple.FieldFloat(0), DisableIncremental: a.raw,
						// Chunks of 7 fill in the middle of runs.
						Epsilon: 0.25, Confidence: 0.95, BudgetTuples: 32, ArchiveChunk: 7,
						Store: storage.NewMemStore(), Key: "k", Seed: 11,
						Columnar: ColumnarSpec{Enabled: true, ValueField: 0},
					}
					if a.aimd {
						cfg.BudgetMin, cfg.BudgetMax = 8, 64
					}
					m, err := NewScalarManager(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				ops := kernelStream(2400, 16, 40, 5)
				ref := mk()
				want := kernelTrace(t, ref, ops, 1, func(ts []tuple.Tuple) ([]Result, error) {
					return refIngest(ref, ts[0])
				})
				if len(want) < 50 {
					t.Fatalf("only %d watermarks traced", len(want))
				}
				check := func(name string, got []string) {
					t.Helper()
					if len(got) != len(want) {
						t.Fatalf("%s: %d watermarks, want %d", name, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: differs from the per-tuple reference at watermark %d:\n%s", name, i, firstDiffLine(got[i], want[i]))
						}
					}
				}
				m := mk()
				check("OnTuple", kernelTrace(t, m, ops, 1, func(ts []tuple.Tuple) ([]Result, error) {
					return m.OnTuple(ts[0])
				}))
				for _, size := range []int{1, 7, 64, 1000} {
					m := mk()
					check(fmt.Sprintf("OnTupleBatch/%d", size), kernelTrace(t, m, ops, size, m.OnTupleBatch))
					m = mk()
					cb := col.Get()
					check(fmt.Sprintf("OnColumnBatch/%d", size), kernelTrace(t, m, ops, size, func(ts []tuple.Tuple) ([]Result, error) {
						cb.SetRows(ts)
						return m.OnColumnBatch(cb)
					}))
					col.Put(cb)
				}
			})
		}
	}
}

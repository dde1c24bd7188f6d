package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spear/internal/agg"
	"spear/internal/control"
	"spear/internal/obs"
	"spear/internal/sample"
	"spear/internal/stats"
	"spear/internal/tuple"
)

// ---- budget retuning (scalar) ----

func TestScalarSetBudgetResizesReservoirs(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 400)
	cfg.DisableIncremental = true
	m, err := NewScalarManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(100+r.NormFloat64()*10)))
	}
	m.SetBudget(50)
	for _, w := range m.wins {
		if w.res.Len() != 50 || w.res.Cap() != 50 {
			t.Fatalf("open window reservoir len=%d cap=%d after SetBudget(50)", w.res.Len(), w.res.Cap())
		}
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs[0].Budget; got != 50 {
		t.Errorf("Result.Budget = %d, want the live budget 50", got)
	}
	if rs[0].Epsilon != cfg.Epsilon || rs[0].Confidence != cfg.Confidence {
		t.Errorf("Result contract fields (%v, %v) not echoed", rs[0].Epsilon, rs[0].Confidence)
	}
}

func TestScalarSetBudgetZeroForcesExact(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 400)
	cfg.DisableIncremental = true
	m, _ := NewScalarManager(cfg)
	m.SetBudget(0)
	var sum float64
	const n = 300
	for i := 0; i < n; i++ {
		v := float64(i)
		sum += v
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(v)))
	}
	for _, w := range m.wins {
		if w.res != nil {
			t.Fatal("budget 0 must drop reservoirs")
		}
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.Mode != ModeExact || !res.FetchedFromStore {
		t.Fatalf("budget 0 window: Mode=%v fetched=%v, want exact from S", res.Mode, res.FetchedFromStore)
	}
	if math.Abs(res.Scalar-sum/n) > 1e-9 {
		t.Errorf("exact mean %v, want %v", res.Scalar, sum/n)
	}
	if res.Budget != 0 {
		t.Errorf("Result.Budget = %d, want 0", res.Budget)
	}
}

// ---- load shedding (scalar) ----

func TestScalarShedBoundFailsIsModeShed(t *testing.T) {
	// Huge variance + tiny budget: the bound fails. With shedding on,
	// the archive is incomplete, so the window must come back as
	// ModeShed — sample answer, realized bound, contract not met.
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 5)
	cfg.DisableIncremental = true
	cfg.Metrics = &obs.Worker{}
	m, _ := NewScalarManager(cfg)
	m.SetShedding(true)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(math.Abs(r.NormFloat64())*1e6*r.Float64())))
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.Mode != ModeShed {
		t.Fatalf("Mode = %v, want shed", res.Mode)
	}
	if res.ContractMet() {
		t.Error("ModeShed must report ContractMet() == false")
	}
	if !(res.EstError > cfg.Epsilon) {
		t.Errorf("EstError = %v, want the realized bound above ε=%v", res.EstError, cfg.Epsilon)
	}
	if res.SampleN != 5 {
		t.Errorf("SampleN = %d, want the sample size 5", res.SampleN)
	}
	if res.FetchedFromStore {
		t.Error("a shed window must not touch S")
	}
	if got := cfg.Metrics.WindowsShed.Load(); got != 1 {
		t.Errorf("WindowsShed = %d, want 1", got)
	}
	if got := cfg.Metrics.TuplesShed.Load(); got != 500 {
		t.Errorf("TuplesShed = %d, want 500", got)
	}
}

func TestScalarShedInvisibleWhenBoundPasses(t *testing.T) {
	// Low variance + generous budget: the bound passes, so shedding is
	// invisible in the result — ModeSampled, contract met.
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 400)
	cfg.DisableIncremental = true
	m, _ := NewScalarManager(cfg)
	m.SetShedding(true)
	r := rand.New(rand.NewSource(2))
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		v := 100 + r.NormFloat64()*10
		sum += v
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(v)))
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.Mode != ModeSampled || !res.ContractMet() {
		t.Fatalf("Mode = %v (contract %v), want sampled with contract met", res.Mode, res.ContractMet())
	}
	if rel := stats.RelativeError(res.Scalar, sum/n); rel > cfg.Epsilon {
		t.Errorf("realized error %.3f above ε despite passing bound", rel)
	}
}

func TestScalarShedRefusedAtZeroBudget(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 10)
	m, _ := NewScalarManager(cfg)
	m.SetBudget(0)
	m.SetShedding(true)
	if m.shed {
		t.Fatal("shedding with no sample to answer from must be refused")
	}
}

// The other order: shedding on, then the budget to zero. The samples go,
// and with them the flag, so every tuple still reaches the archive and
// the window is answered exactly from S — not ModeShed from a sample it
// no longer has (which answered 0 with an infinite bound).
func TestScalarBudgetZeroEndsShedding(t *testing.T) {
	for _, f := range []agg.Func{{Op: agg.Mean}, agg.Median()} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := mkCfg(f, 50)
			cfg.DisableIncremental = true
			m, _ := NewScalarManager(cfg)
			m.SetShedding(true)
			m.SetBudget(0)
			vals := make([]float64, 300)
			for i := range vals {
				vals[i] = float64(i%17) + 0.5
				if _, err := m.OnTuple(tuple.New(int64(i/3), tuple.Float(vals[i]))); err != nil {
					t.Fatal(err)
				}
			}
			rs, err := m.OnWatermark(math.MaxInt64)
			if err != nil || len(rs) != 1 {
				t.Fatalf("%d windows (err %v), want one", len(rs), err)
			}
			r := rs[0]
			if want := f.Compute(slices.Clone(vals)); r.Mode != ModeExact || !r.FetchedFromStore || r.N != 300 || r.Scalar != want {
				t.Errorf("got %v %v (fetched %v, n %d), want the exact %v from S", r.Mode, r.Scalar, r.FetchedFromStore, r.N, want)
			}
			if m.shed || m.sheds != 0 {
				t.Errorf("shed=%v, %d tuples shed", m.shed, m.sheds)
			}
		})
	}
}

// An incremental query archives nothing, so it has no write to shed:
// the flag is refused from the setter, from the cell, and from a blob an
// older writer left it set in, and no tuple is booked as shed.
func TestScalarShedRefusedOnIncremental(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 10)
	cfg.Cell = control.NewCell(10)
	var w obs.Worker
	cfg.Metrics = &w
	m, _ := NewScalarManager(cfg)
	m.SetShedding(true)
	if m.shed {
		t.Fatal("SetShedding accepted with no archive write to skip")
	}
	cfg.Cell.Set(10, true)
	for i := 0; i < 150; i++ {
		m.OnTuple(tuple.New(int64(i), tuple.Float(float64(i))))
	}
	if m.shed || m.sheds != 0 || w.TuplesShed.Load() != 0 {
		t.Fatalf("after the cell asked for shedding: shed=%v sheds=%d TuplesShed=%d", m.shed, m.sheds, w.TuplesShed.Load())
	}
	m.shed = true // what a writer from before the refusal could snapshot
	blob, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cell = control.NewCell(10)
	m2, _ := NewScalarManager(cfg)
	if err := m2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if m2.shed || cfg.Cell.Shedding() {
		t.Fatalf("restored shed=%v, republished %v", m2.shed, cfg.Cell.Shedding())
	}
	rs, _ := m2.OnWatermark(math.MaxInt64)
	for _, r := range rs {
		if r.Mode != ModeIncremental {
			t.Errorf("window %d: mode %v", r.WindowID, r.Mode)
		}
	}
	if len(rs) != 2 {
		t.Fatalf("%d windows fired, want the two open ones", len(rs))
	}
}

// ---- controller cell sync ----

func TestCellDrivesScalarManager(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 200)
	cfg.DisableIncremental = true
	cfg.Cell = control.NewCell(200)
	m, _ := NewScalarManager(cfg)
	for i := 0; i < 300; i++ {
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(float64(i))))
	}
	cfg.Cell.Set(40, true)
	m.OnTuple(tuple.New(0, tuple.Float(1)))
	if m.curBudget != 40 || !m.shed {
		t.Fatalf("after cell publish: budget=%d shed=%v, want 40/true", m.curBudget, m.shed)
	}
	for _, w := range m.wins {
		if w.res.Cap() != 40 {
			t.Fatalf("reservoir cap %d, want resized to 40", w.res.Cap())
		}
	}
	cfg.Cell.Set(200, false)
	m.OnTuple(tuple.New(1, tuple.Float(2)))
	if m.curBudget != 200 || m.shed {
		t.Fatalf("after recovery publish: budget=%d shed=%v, want 200/false", m.curBudget, m.shed)
	}
}

func TestCellDrivesGroupedManager(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 90)
	cfg.KeyBy = tuple.FieldString(1)
	cfg.KnownGroups = 3
	cfg.Cell = control.NewCell(90)
	m, err := NewGroupedManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	for i := 0; i < 600; i++ {
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(float64(i)), tuple.String_(keys[i%3])))
	}
	cfg.Cell.Set(30, false)
	m.OnTuple(tuple.New(0, tuple.Float(1), tuple.String_("a")))
	if m.curBudget != 30 {
		t.Fatalf("budget %d, want 30", m.curBudget)
	}
	for _, w := range m.wins {
		if w.known == nil || w.known.PerGroup() != 10 {
			t.Fatalf("per-group cap not retuned to 30/3 = 10")
		}
	}
}

// ---- grouped budget accounting (GroupedManager.capacity) ----

func TestGroupedKnownGroupsNeverExceedBudget(t *testing.T) {
	// Regression: with KnownGroups > BudgetTuples the old floor-to-1
	// per-group cap let the aggregate sample reach KnownGroups tuples,
	// silently exceeding b. Now the cap floors to zero: no reservoirs,
	// windows answered exactly.
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 4)
	cfg.KeyBy = tuple.FieldString(1)
	cfg.KnownGroups = 10
	cfg.DisableIncremental = true
	m, err := NewGroupedManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		key := string(rune('a' + i%10))
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(float64(i)), tuple.String_(key)))
	}
	for _, w := range m.wins {
		if w.known != nil {
			t.Fatal("per-group cap 4/10 = 0 must mean no reservoirs at all")
		}
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Mode != ModeExact {
		t.Fatalf("Mode = %v, want exact (no sample within budget)", rs[0].Mode)
	}
	if len(rs[0].Groups) != 10 {
		t.Fatalf("%d groups, want all 10", len(rs[0].Groups))
	}
}

func TestGroupedSampleWithinBudget(t *testing.T) {
	// With a feasible split the aggregate sample must respect b.
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 7)
	cfg.KeyBy = tuple.FieldString(1)
	cfg.KnownGroups = 3
	m, err := NewGroupedManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	for i := 0; i < 900; i++ {
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(float64(i)), tuple.String_(keys[i%3])))
	}
	for _, w := range m.wins {
		total := 0
		w.known.Each(func(_ string, r *sample.Reservoir) { total += r.Len() })
		if total > 7 {
			t.Fatalf("aggregate sample %d exceeds budget 7", total)
		}
	}
}

// ---- load shedding (grouped, known path) ----

func TestGroupedShedNonHolisticStaysExact(t *testing.T) {
	// Shedding taints windows, but a non-holistic grouped operation is
	// answered exactly from the per-group Welford metadata regardless —
	// the contract survives shedding.
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 6)
	cfg.KeyBy = tuple.FieldString(1)
	cfg.KnownGroups = 3
	m, _ := NewGroupedManager(cfg)
	m.SetShedding(true)
	r := rand.New(rand.NewSource(5))
	sums := map[string]float64{}
	counts := map[string]float64{}
	keys := []string{"a", "b", "c"}
	for i := 0; i < 600; i++ {
		k := keys[i%3]
		v := math.Abs(r.NormFloat64()) * 1e6
		sums[k] += v
		counts[k]++
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(v), tuple.String_(k)))
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.Mode != ModeIncremental || !res.ContractMet() {
		t.Fatalf("Mode = %v, want incremental (exact from metadata)", res.Mode)
	}
	for k, want := range sums {
		want /= counts[k]
		if math.Abs(res.Groups[k]-want) > 1e-6*want {
			t.Errorf("group %q = %v, want exact %v", k, res.Groups[k], want)
		}
	}
}

func TestGroupedShedHolisticIsModeShed(t *testing.T) {
	cfg := mkCfg(agg.Median(), 6)
	cfg.KeyBy = tuple.FieldString(1)
	cfg.KnownGroups = 3
	cfg.Metrics = &obs.Worker{}
	m, err := NewGroupedManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetShedding(true)
	r := rand.New(rand.NewSource(6))
	keys := []string{"a", "b", "c"}
	for i := 0; i < 600; i++ {
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(r.Float64()*1000), tuple.String_(keys[i%3])))
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.Mode != ModeShed || res.ContractMet() {
		t.Fatalf("Mode = %v, want shed (holistic, bound failed, archive gone)", res.Mode)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("%d groups in shed answer, want 3", len(res.Groups))
	}
	if res.FetchedFromStore {
		t.Error("a shed window must not touch S")
	}
	if got := cfg.Metrics.WindowsShed.Load(); got != 1 {
		t.Errorf("WindowsShed = %d, want 1", got)
	}
}

// ---- snapshot/restore at the budget floor (satellite: versioned check) ----

func TestScalarSnapshotRestoreAtBudgetFloor(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 50)
	cfg.DisableIncremental = true
	m, _ := NewScalarManager(cfg)
	for i := 0; i < 120; i++ {
		m.OnTuple(tuple.New(int64(i), tuple.Float(float64(i))))
	}
	m.SetBudget(0) // the controller drove the budget to the floor
	blob, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.Store = cfg.Store // same S: panes must be readable after restore
	cfg2.Cell = control.NewCell(50)
	m2, _ := NewScalarManager(cfg2)
	if err := m2.RestoreState(blob); err != nil {
		t.Fatalf("restore at budget floor: %v (the old check treated curBudget == 0 as corrupt)", err)
	}
	if m2.curBudget != 0 {
		t.Fatalf("restored budget %d, want 0", m2.curBudget)
	}
	if got := cfg2.Cell.Budget(); got != 0 {
		t.Fatalf("restore must re-publish the budget to the controller cell, got %d", got)
	}
	// The restored manager keeps producing: exact results from S.
	for i := 120; i < 200; i++ {
		m2.OnTuple(tuple.New(int64(i), tuple.Float(float64(i))))
	}
	rs, err := m2.OnWatermark(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results after recovery, want 2", len(rs))
	}
	for _, r := range rs {
		if r.Mode != ModeExact {
			t.Fatalf("window %d Mode = %v, want exact at budget 0", r.WindowID, r.Mode)
		}
	}
}

func TestScalarSnapshotCarriesShedState(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 5)
	cfg.DisableIncremental = true
	m, _ := NewScalarManager(cfg)
	m.SetShedding(true)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(math.Abs(r.NormFloat64())*1e6)))
	}
	blob, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	m2, _ := NewScalarManager(cfg2)
	if err := m2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if !m2.shed || m2.sheds != 200 {
		t.Fatalf("restored shed=%v sheds=%d, want true/200", m2.shed, m2.sheds)
	}
	rs, err := m2.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Mode != ModeShed {
		t.Fatalf("restored tainted window Mode = %v, want shed", rs[0].Mode)
	}
}

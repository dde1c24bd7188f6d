package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"spear/internal/agg"
	"spear/internal/sample"
	"spear/internal/stats"
	"spear/internal/tuple"
)

// welfordOf returns an accumulator of n values with the given mean and
// standard deviation, set field by field through the checkpoint codec so
// the moments are exact.
func welfordOf(n int64, mean, sd float64) *stats.Welford {
	m2 := 0.0
	if n >= 2 {
		m2 = sd * sd * float64(n-1)
	}
	b := tuple.AppendI64(nil, n)
	for _, f := range []float64{mean, m2, mean - sd, mean + sd, mean * float64(n)} {
		b = tuple.AppendF64(b, f)
	}
	var w stats.Welford
	w.ReadFrom(tuple.NewWireReader(b))
	return &w
}

// groupsOf returns the per-group accumulators ws, keyed by group.
func groupsOf(ws map[string]*stats.Welford) *sample.GroupStats {
	keys := make([]string, 0, len(ws))
	for k := range ws {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := tuple.AppendUvar(nil, uint64(len(keys)))
	for _, k := range keys {
		b = ws[k].AppendTo(tuple.AppendStr(b, k))
	}
	return sample.NewKeyDict().ReadGroupStats(tuple.NewWireReader(b))
}

// allOps is every operation agg defines.
func allOps() []agg.Op {
	var ops []agg.Op
	for op := agg.Op(0); op < math.MaxUint8; op++ {
		if !strings.HasPrefix(op.String(), "op(") {
			ops = append(ops, op)
		}
	}
	return ops
}

// TestEveryOpHasABound: every operation maps to a bound family or to an
// explicit refusal, so a new Op without a bound fails here.
func TestEveryOpHasABound(t *testing.T) {
	ops := allOps()
	for _, op := range ops {
		if _, ok := bounds[op]; !ok {
			t.Errorf("%v has no bound family and no explicit refusal in core.bounds", op)
		}
	}
	if len(bounds) != len(ops) {
		t.Errorf("core.bounds holds %d entries for %d operations", len(bounds), len(ops))
	}
}

// sameBits reports whether two estimator answers are identical, ε̂ to the
// bit.
func sameBits(e1 float64, ok1 bool, e2 float64, ok2 bool) bool {
	return ok1 == ok2 && math.Float64bits(e1) == math.Float64bits(e2)
}

// estimatorGrid runs fn over the reference grid of sample size n, window
// size N, sample mean, sample standard deviation and confidence.
func estimatorGrid(fn func(n, N int64, mean, sd, conf float64)) {
	for _, n := range []int64{0, 1, 2, 3, 30, 59, 60, 61, 185, 200, 1000} {
		for _, N := range []int64{n, n + 1, 10 * n, 47_000} {
			for _, mean := range []float64{0, 103.04, -103.04} {
				for _, sd := range []float64{0, 0.5, 40} {
					for _, conf := range []float64{0.90, 0.95, 0.99} {
						fn(n, N, mean, sd, conf)
					}
				}
			}
		}
	}
}

// TestLookupMatchesReference holds the lookup by agg.Op to the estimators
// it replaced (estimator_ref_test.go), bit for bit, over the grid:
// scalar, trimmed mean and grouped L1 for every Op. The grouped Min, Max,
// Variance and StdDev read their own family now, not the mean's; for
// them, and for every Op, a grouped window of one group must read as the
// scalar one.
func TestLookupMatchesReference(t *testing.T) {
	moved := map[agg.Op]bool{agg.Min: true, agg.Max: true, agg.Variance: true, agg.StdDev: true}
	tm := agg.TrimmedMean(0.1)
	estimatorGrid(func(n, N int64, mean, sd, conf float64) {
		r := rand.New(rand.NewSource(n))
		smp := make([]float64, n)
		for i := range smp {
			smp[i] = mean + sd*r.NormFloat64()
		}
		for _, op := range allOps() {
			f := agg.Func{Op: op, P: 0.5}
			s := ScalarState{Sample: smp, N: N, Stats: welfordOf(2, mean, sd), Confidence: conf, Agg: f}
			e, ok := DefaultScalarEstimate(s)
			if re, rok := refDefaultScalarEstimate(s); !sameBits(e, ok, re, rok) {
				t.Errorf("scalar %v n=%d N=%d ȳ=%v s=%v α=%v: (%v, %v), reference (%v, %v)", op, n, N, mean, sd, conf, e, ok, re, rok)
			}
			if op == agg.Mean {
				s.Custom = &tm
				for _, frac := range []float64{0, 0.1, 0.25} {
					e, ok := TrimmedMeanEstimator(frac)(s)
					if re, rok := refTrimmedMeanEstimator(frac)(s); !sameBits(e, ok, re, rok) {
						t.Errorf("trimmed %v n=%d N=%d ȳ=%v s=%v α=%v: (%v, %v), reference (%v, %v)", frac, n, N, mean, sd, conf, e, ok, re, rok)
					}
				}
				if e, ok := DefaultScalarEstimate(s); ok || !math.IsInf(e, 1) {
					t.Errorf("custom op: (%v, %v), want a refusal", e, ok)
				}
			}

			one := GroupedState{Groups: groupsOf(map[string]*stats.Welford{"a": welfordOf(N, mean, sd)}),
				Alloc: map[string]int{"a": int(n)}, Confidence: conf, Agg: f}
			ge, gok := DefaultGroupedEstimate(one)
			if se, sok := bounds[op].Err(n, N, one.Groups.Get("a").Moments(), conf); !sameBits(ge, gok, se, sok) {
				t.Errorf("grouped %v of one group n=%d N=%d ȳ=%v s=%v α=%v: (%v, %v), scalar (%v, %v)", op, n, N, mean, sd, conf, ge, gok, se, sok)
			}
			if moved[op] {
				continue
			}
			g := GroupedState{Groups: groupsOf(map[string]*stats.Welford{
				"a": welfordOf(N, mean, sd), "b": welfordOf(2*N+1, 50, sd/2+1), "c": welfordOf(N+3, mean/2, sd),
			}), Alloc: map[string]int{"a": int(n), "b": int(n) + 1, "c": int(n)}, Confidence: conf, Agg: f}
			for _, st := range []GroupedState{one, g, {Groups: g.Groups, Alloc: one.Alloc, Confidence: conf, Agg: f}} {
				e, ok := DefaultGroupedEstimate(st)
				if re, rok := refDefaultGroupedEstimate(st); !sameBits(e, ok, re, rok) {
					t.Errorf("grouped %v n=%d N=%d ȳ=%v s=%v α=%v groups=%d: (%v, %v), reference (%v, %v)", op, n, N, mean, sd, conf, st.Groups.Len(), e, ok, re, rok)
				}
			}
		}
	})
	if e, ok := DefaultGroupedEstimate(GroupedState{Groups: groupsOf(nil), Agg: agg.Func{Op: agg.Mean}}); ok || !math.IsInf(e, 1) {
		t.Errorf("no group: (%v, %v), want a refusal", e, ok)
	}
}

// TestGroupedBoundIsTheOpsOwn: a grouped Max has no bound, as a scalar
// one has none, and a grouped Variance reads the variance's bound, not
// the mean's. Two groups of about 10 000 N(100, 1) values at b = 400,
// with the groups known and with them unknown and the moments path off:
// before the lookup every window was sampled with ε̂ 0.0014 (the mean's
// bound) and ContractMet true; with the groups known, Variance's group b
// read 1.161 against an exact 1.023 and Max's group a 102.50 against
// 104.07.
func TestGroupedBoundIsTheOpsOwn(t *testing.T) {
	for _, op := range []agg.Op{agg.Max, agg.Variance} {
		for _, known := range []bool{true, false} {
			f := agg.Func{Op: op}
			cfg := mkCfg(f, 400)
			cfg.KeyBy = tuple.FieldString(0)
			cfg.Value = tuple.FieldFloat(1)
			if known {
				cfg.KnownGroups = 2
			} else {
				cfg.DisableIncremental = true
			}
			m, err := NewGroupedManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(3))
			byGroup := map[string][]float64{}
			for i := 0; i < 20_000; i++ {
				g := []string{"a", "b"}[r.Intn(2)]
				v := 100 + r.NormFloat64()
				byGroup[g] = append(byGroup[g], v)
				if _, err := ingestOne(m, tuple.New(int64(i)%100, tuple.String_(g), tuple.Float(v))); err != nil {
					t.Fatal(err)
				}
			}
			rs, err := m.OnWatermark(100)
			if err != nil {
				t.Fatal(err)
			}
			res := rs[0]
			if res.Mode != ModeExact {
				t.Errorf("%v known=%v: Mode %v with ε̂ %v, want exact", op, known, res.Mode, res.EstError)
			}
			for g, vs := range byGroup {
				if want := f.Compute(vs); math.Abs(res.Groups[g]-want) > 1e-9*math.Abs(want) {
					t.Errorf("%v known=%v group %s: %v, exact %v", op, known, g, res.Groups[g], want)
				}
			}
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spear/internal/agg"
	"spear/internal/tuple"
	"spear/internal/window"
)

// stormRows returns n DEC-like rows one tick apart from ts on.
func stormRows(rng *rand.Rand, ts int64, n int) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.New(ts+int64(i), tuple.Float(40+rng.Float64()*1460))
	}
	return rows
}

var resultsSink []Result

// TestStormFireAllocs: once its buffer and staging have grown to a
// fire's size, a Storm fire allocates the results it returns and
// nothing else. Staging each window into a slice grown from nil, and
// reading its values into a fresh one, cost a dozen allocations a fire.
func TestStormFireAllocs(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 1)
	cfg.Spec = window.Spec{Domain: window.TimeDomain, Range: 400, Slide: 100}
	m, err := NewExactManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := stormRows(rand.New(rand.NewSource(1)), 0, 100)
	ts := int64(0)
	round := func() {
		for i := range rows {
			rows[i].Ts = ts + int64(i)
		}
		if _, err := m.OnTupleBatch(rows); err != nil {
			t.Fatal(err)
		}
		ts += 100
		rs, err := m.OnWatermark(ts)
		if err != nil || len(rs) != 1 {
			t.Fatalf("%d windows (err %v), want one a slide", len(rs), err)
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	// What allocating the results costs: one, or two under -race.
	results := testing.AllocsPerRun(50, func() { resultsSink = slices.Grow([]Result(nil), 1) })
	if allocs := testing.AllocsPerRun(50, round); allocs > results {
		t.Errorf("%v allocations a slide, want %v: the results'", allocs, results)
	}
	if len(m.stage) != 0 || cap(m.stage) == 0 {
		t.Errorf("staging of len %d, cap %d after the fire: want it emptied and kept", len(m.stage), cap(m.stage))
	}
	for _, tp := range m.stage[:cap(m.stage)] {
		if tp.Vals != nil {
			t.Fatal("the staging pins a tuple past the fire")
		}
	}
}

// BenchmarkStormFire is Fig. 9's Storm leg alone: a DEC median over
// count tumbling windows of 2.5K to 47K tuples, fed in runs of 64. One
// op is one window, ingested and fired.
func BenchmarkStormFire(b *testing.B) {
	for _, n := range []int{2500, 5000, 10000, 20000, 47000} {
		b.Run(fmt.Sprintf("window=%d", n), func(b *testing.B) {
			cfg := mkCfg(agg.Median(), 1)
			cfg.Spec = window.Spec{Domain: window.CountDomain, Range: int64(n), Slide: int64(n)}
			m, err := NewExactManager(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rows := stormRows(rand.New(rand.NewSource(1)), 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fired := 0
				for j := 0; j < n; j += 64 {
					rs, err := m.OnTupleBatch(rows[j:min(j+64, n)])
					if err != nil {
						b.Fatal(err)
					}
					fired += len(rs)
				}
				if fired != 1 {
					b.Fatalf("%d windows fired, want 1", fired)
				}
			}
		})
	}
}

// TestStormIngestReadsNoValue: Storm and CountMin buffer an admitted row
// as it is and read its value when a fire stages it, so their ingest
// calls no Value extractor; the fire still does.
func TestStormIngestReadsNoValue(t *testing.T) {
	for name, mk := range map[string]func(Config) (*ExactManager, error){"storm": NewExactManager, "countmin": NewCountMinManager} {
		calls := 0
		cfg := mkCfg(agg.Func{Op: agg.Mean}, 1)
		cfg.KeyBy = tuple.FieldString(1)
		value := cfg.Value
		cfg.Value = func(t tuple.Tuple) float64 { calls++; return value(t) }
		m, err := mk(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]tuple.Tuple, 50)
		for i := range rows {
			rows[i] = tuple.New(int64(i), tuple.Float(float64(i)), tuple.String_(fmt.Sprint(i%3)))
		}
		if _, err := m.OnTupleBatch(rows); err != nil {
			t.Fatal(err)
		}
		if calls != 0 {
			t.Errorf("%s: ingest called Value %d times", name, calls)
		}
		if rs, err := m.OnWatermark(100); err != nil || len(rs) != 1 || calls != len(rows) {
			t.Errorf("%s: the fire answered %d windows (%v) and called Value %d times, want 1 and %d", name, len(rs), err, calls, len(rows))
		}
	}
}

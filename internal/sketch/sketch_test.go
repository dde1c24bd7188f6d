package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountMinExactOnSparseKeys(t *testing.T) {
	cm := NewCountMin(1024, 4)
	cm.Add("a", 5)
	cm.Add("b", 3)
	cm.Add("a", 2)
	if got := cm.Estimate("a"); got < 7 {
		t.Errorf("Estimate(a) = %v, want ≥ 7", got)
	}
	if got := cm.Estimate("b"); got < 3 {
		t.Errorf("Estimate(b) = %v, want ≥ 3", got)
	}
	// With 2 keys in 1024 buckets collisions are overwhelmingly
	// unlikely, so estimates should be exact.
	if cm.Estimate("a") != 7 || cm.Estimate("b") != 3 {
		t.Errorf("sparse estimates inexact: a=%v b=%v", cm.Estimate("a"), cm.Estimate("b"))
	}
}

// The fundamental CountMin property: estimates never underestimate.
// The subtest keeps the name it had when a conservative-update mode
// existed beside the plain one; the plain update is the one it runs.
func TestCountMinNeverUnderestimates(t *testing.T) {
	t.Run("conservative=false", func(t *testing.T) {
		r := rand.New(rand.NewSource(11))
		cm := NewCountMin(64, 4) // small: force collisions
		truth := map[string]float64{}
		f := func(kRaw uint8, vRaw uint8) bool {
			k := fmt.Sprintf("key-%d", kRaw%200)
			v := float64(vRaw%10) + 0.5
			cm.Add(k, v)
			truth[k] += v
			// Check a random known key each step.
			for probe := range truth {
				if r.Intn(4) == 0 {
					if cm.Estimate(probe) < truth[probe]-1e-9 {
						return false
					}
					break
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Error(err)
		}
	})
}

func TestCountMinErrorBound(t *testing.T) {
	// ε=0.01, δ=0.01 over 100k total increments: per-key error should
	// be ≤ ε·total = 1000 for the vast majority of keys.
	cm := NewCountMinWithError(0.01, 0.01)
	r := rand.New(rand.NewSource(3))
	truth := map[string]float64{}
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("k%d", int(math.Abs(r.NormFloat64()*300)))
		cm.Add(k, 1)
		truth[k]++
	}
	bad := 0
	for k, v := range truth {
		if cm.Estimate(k)-v > 0.01*100000 {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(truth)); frac > 0.01 {
		t.Errorf("%.3f of keys exceed the error bound, want ≤ 0.01", frac)
	}
}

func TestCountMinSizing(t *testing.T) {
	cm := NewCountMinWithError(0.10, 0.05)
	if cm.width != 28 { // ⌈e/0.1⌉
		t.Errorf("width = %d, want 28", cm.width)
	}
	if cm.depth != 3 { // ⌈ln 20⌉
		t.Errorf("depth = %d, want 3", cm.depth)
	}
	if cm.MemSize() < 28*3*8 {
		t.Errorf("MemSize = %d", cm.MemSize())
	}
	for _, bad := range []func(){
		func() { NewCountMin(0, 1) },
		func() { NewCountMinWithError(0, 0.5) },
		func() { NewCountMinWithError(0.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestCountMinReset(t *testing.T) {
	cm := NewCountMin(16, 2)
	cm.Add("x", 9)
	cm.Reset()
	if cm.Estimate("x") != 0 {
		t.Error("Reset did not clear")
	}
}

func TestGroupedMeanSketch(t *testing.T) {
	g := NewGroupedMeanSketch(0.01, 0.01)
	truth := map[string][]float64{}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("class-%d", r.Intn(4))
		v := 10 + r.Float64()*float64(10*(1+len(k)%3))
		g.Add(k, v)
		truth[k] = append(truth[k], v)
	}
	if len(g.groups) != 4 {
		t.Fatalf("groups = %d", len(g.groups))
	}
	res := g.Result()
	if len(res) != 4 {
		t.Fatalf("Result has %d groups", len(res))
	}
	for k, vs := range truth {
		var sum float64
		for _, v := range vs {
			sum += v
		}
		exact := sum / float64(len(vs))
		if rel := math.Abs(res[k]-exact) / exact; rel > 0.05 {
			t.Errorf("group %s: est %v vs exact %v (rel %.3f)", k, res[k], exact, rel)
		}
	}
	if g.MemSize() <= 2*NewCountMinWithError(0.01, 0.01).MemSize() {
		t.Error("MemSize must include the group set")
	}
	g.Reset()
	if len(g.groups) != 0 {
		t.Error("Reset did not clear groups")
	}
	if len(g.Result()) != 0 {
		t.Error("Result after Reset should be empty")
	}
	if g.String() == "" {
		t.Error("String should describe the sketch")
	}
}

func TestGroupedMeanSketchZeroCount(t *testing.T) {
	g := NewGroupedMeanSketch(0.1, 0.1)
	g.groups["phantom"] = struct{}{} // group never Added
	if got := g.Result()["phantom"]; got != 0 {
		t.Errorf("phantom group mean = %v, want 0", got)
	}
}

func BenchmarkCountMinAdd(b *testing.B) {
	cm := NewCountMinWithError(0.10, 0.05)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("route-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Add(keys[i&255], 1)
	}
}

func BenchmarkGroupedMeanSketchAdd(b *testing.B) {
	g := NewGroupedMeanSketch(0.10, 0.05)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("route-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Add(keys[i&255], float64(i&63))
	}
}

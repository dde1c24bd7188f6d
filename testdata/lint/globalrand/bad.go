// Package globalrand is a source-check fixture: known-bad and known-good
// uses of math/rand in library code.
package globalrand

import "math/rand"

// Bad: package-level calls hit the locked global source.
func shuffleBad(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { // want "global source"
		xs[i], xs[j] = xs[j], xs[i]
	})
}

func pickBad(n int) int {
	return rand.Intn(n) // want "global source"
}

func seedBad() {
	rand.Seed(42) // want "global source"
}

// Bad even without a call: the func value reads the global source when
// invoked.
var gen func() float64 = rand.Float64 // want "global source"

// Good: constructing an injected generator is the sanctioned pattern.
func pickGood(rng *rand.Rand, n int) int {
	return rng.Intn(n)
}

func newRng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Good: a local identifier shadowing the package name is not the
// package.
type fakeRand struct{}

func (fakeRand) Intn(n int) int { return 0 }

func shadowed() int {
	rand := fakeRand{}
	return rand.Intn(7)
}

// Package globalrand is a source-check fixture: known-bad and known-good
// uses of math/rand, of maphash seeds and of wall-clock seeds in library
// code.
package globalrand

import (
	"hash/maphash"
	"math/rand"
	"time"

	"spear/internal/sample"
)

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

// Bad: a per-process hash seed; no run can replay what it places.
var perProcess = maphash.MakeSeed() // want "MakeSeed draws a per-process seed"

// Good: hashing under a seed the caller holds.
func hashGood(seed maphash.Seed, s string) uint64 {
	return maphash.String(seed, s)
}

// Bad: a seed read off the wall clock, directly or through a variable.
func clockSeedBad() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "derived from the wall clock"
}

func clockSeedVarBad(start time.Time) int64 {
	now := time.Since(start).Nanoseconds()
	seed := now ^ 0x5eed
	return sample.DeriveSeed(seed, 1) // want "derived from the wall clock"
}

type seeded struct{ Seed int64 }

var clockLiteralBad = seeded{Seed: time.Now().Unix()} // want "derived from the wall clock"

func clockFieldBad(s *seeded) {
	s.Seed = time.Now().UnixNano() // want "derived from the wall clock"
}

// Good: a Seed field assigned the caller's seed, and a clock read
// assigned to a field that is not a seed.
type stamped struct {
	Seed int64
	At   time.Time
}

func fieldGood(s *stamped, seed int64) {
	s.Seed = sample.DeriveSeed(seed, 3)
	s.At = time.Now()
}

// Good: the wall clock read for what it is, a time, and a seed derived
// from the caller's.
func clockGood(seed int64) (time.Time, int64) {
	return time.Now(), sample.DeriveSeed(seed, 2)
}

package sample

import "math/bits"

// prng is a SplitMix64 pseudo-random generator with a single uint64 of
// state. Reservoirs use it instead of math/rand.Rand because checkpoint
// snapshots must serialize the generator: restoring a reservoir
// mid-window has to resume the exact random sequence, or the
// post-recovery sample (and therefore SPEAr's accelerate/exact
// decision) would diverge from an uninterrupted run. math/rand.Rand
// carries ~5 KB of hidden state with no way to extract it; SplitMix64
// is 8 bytes, passes BigCrush, and is already the repo's seed-derivation
// function (DeriveSeed), so one primitive covers both uses.
type prng struct {
	state uint64
}

// next returns the next 64 random bits.
func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	return splitmix64(p.state)
}

// Float64 returns a uniform value in (0, 1). Zero is excluded so
// callers can take logarithms (Algorithm L's skip computation) without
// guarding against -Inf.
func (p *prng) Float64() float64 {
	for {
		if f := float64(p.next()>>11) / (1 << 53); f != 0 {
			return f
		}
	}
}

// Int63n returns a uniform value in [0, n) for n > 0, using Lemire's
// multiply-shift reduction (no modulo bias worth caring about at the
// window sizes involved, and no divisions).
func (p *prng) Int63n(n int64) int64 {
	hi, _ := bits.Mul64(p.next(), uint64(n))
	return int64(hi)
}

// Intn returns a uniform value in [0, n) for n > 0.
func (p *prng) Intn(n int) int { return int(p.Int63n(int64(n))) }

// State exposes the 8-byte generator state for snapshots.
func (p *prng) State() uint64 { return p.state }

// SetState restores a snapshotted state.
func (p *prng) SetState(s uint64) { p.state = s }

//go:build race

package spe

// Under the race detector sync.Pool drops a quarter of what is Put, to
// flush out code that counts on getting it back. A column batch col's
// pool drops is rebuilt from nothing at the next Get, ≈ 54 allocations
// for its 64 tuples, so three_stages_columnar reads ≈ 0.21 allocs/tuple
// there; a per-tuple allocation still reads 2 more.
func init() { hopRaceAllowance = 0.25 }

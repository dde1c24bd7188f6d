// Package floatcmp is a source-check fixture; the test loads it with the
// module-relative path internal/stats, putting it in the numeric-kernel
// scope.
package floatcmp

import "math"

// Bad: identity compare between two computed floats.
func converged(a, b float64) bool {
	return a == b // want "float equality"
}

func changed(xs []float64, mean float64) bool {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s/float64(len(xs)) != mean // want "float equality"
}

// Good: epsilon comparison.
func close(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// Good: comparing against an exact constant sentinel is well-defined.
func isZero(x float64) bool {
	return x == 0
}

func isUnit(p float64) bool {
	return p != 1
}

// Good: integer compares are out of scope.
func sameRank(lo, hi int) bool {
	return lo == hi
}

package agg

import (
	"errors"
	"fmt"
)

// CustomFunc is a user-defined holistic aggregate over a window's
// values — the paper's "API for defining custom approximate stateful
// operations" (§4). The engine evaluates it either on the full window
// (exact path) or on the reservoir sample (accelerated path); the user
// supplies the accuracy-estimation function separately, through the
// core package's estimator hooks.
//
// Compute must be a pure function of the multiset it is given: it is
// called with samples and with full windows interchangeably. Functions
// that need the true window size (e.g. scaled totals) use n, the window
// size, which equals len(values) on the exact path.
type CustomFunc struct {
	// Name labels the operation in telemetry and errors.
	Name string
	// Compute evaluates the aggregate over values drawn from a window
	// of n tuples.
	Compute func(values []float64, n int64) float64
}

// Validate checks the custom function is well-formed.
func (c CustomFunc) Validate() error {
	if c.Compute == nil {
		return errors.New("agg: custom function without Compute")
	}
	if c.Name == "" {
		return errors.New("agg: custom function without a name")
	}
	return nil
}

// String renders the function.
func (c CustomFunc) String() string { return fmt.Sprintf("custom(%s)", c.Name) }

// TrimmedMean returns a custom aggregate computing the mean after
// discarding the lowest and highest frac fraction of values — a robust
// location estimate used as the repository's worked example of a custom
// approximate operation.
func TrimmedMean(frac float64) CustomFunc {
	if !(frac >= 0 && frac < 0.5) {
		panic("agg: trim fraction must be in [0, 0.5)")
	}
	lo := Func{Op: Percentile, P: frac}
	hi := Func{Op: Percentile, P: 1 - frac}
	return CustomFunc{
		Name: fmt.Sprintf("trimmed-mean(%g)", frac),
		Compute: func(values []float64, _ int64) float64 {
			if len(values) == 0 {
				return 0
			}
			l := lo.Compute(values)
			h := hi.Compute(values)
			var sum float64
			cnt := 0
			for _, v := range values {
				if v >= l && v <= h {
					sum += v
					cnt++
				}
			}
			if cnt == 0 {
				return 0
			}
			return sum / float64(cnt)
		},
	}
}

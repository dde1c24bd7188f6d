package main

import (
	"strings"
	"testing"
	"time"

	"spear"
	"spear/benchmark/loadgen"
)

// setID assigns a window ID without naming its type, which lives in an
// internal package the harness does not import.
func setID[T ~int64](dst *T, id int64) { *dst = T(id) }

// checkedRun replays a small dec_mean_tcp-shaped block (in-order ticks,
// sliding mean) through tamper into a fresh checker and returns what
// the checker made of it.
func checkedRun(t *testing.T, tamper func(id int64, r *spear.Result) (deliver bool)) (expected, failed int, failures string) {
	t.Helper()
	block, sh, err := loadgen.Input("dec_mean_tcp", 1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("dec_mean_tcp")
	ref := newReference(block, w.refSpec(sh))
	const cycles = 2
	chk := newChecker(ref, cycles, 1)
	lo, hi := ref.idRange(cycles)
	for id := lo; id <= hi; id++ {
		a := ref.window(id, cycles)
		if a.n == 0 {
			continue
		}
		r := spear.Result{Start: id * sh.Slide, End: id*sh.Slide + sh.Range, N: a.n, Scalar: a.scalar}
		setID(&r.WindowID, id)
		if tamper(id, &r) {
			chk.observe(0, r, time.Now())
		}
	}
	expected, failed = chk.finish()
	return expected, failed, strings.Join(chk.failures, "\n")
}

// A faithful run passes; a wrong value, a dropped window and a lost
// tuple are each flagged, once, with a message that says which.
func TestCheckerFlagsWhatItMust(t *testing.T) {
	const victim = 7
	cases := []struct {
		name   string
		tamper func(id int64, r *spear.Result) bool
		want   string // substring of the failure; "" = no failure
	}{
		{"faithful", func(int64, *spear.Result) bool { return true }, ""},
		{"wrong value", func(id int64, r *spear.Result) bool {
			if id == victim {
				r.Scalar *= 1.001
			}
			return true
		}, "differs from the reference"},
		{"dropped window", func(id int64, _ *spear.Result) bool { return id != victim }, "window 7 missing"},
		{"lost tuple", func(id int64, r *spear.Result) bool {
			if id == victim {
				r.N--
			}
			return true
		}, "lost or late-dropped"},
		{"non-finite", func(id int64, r *spear.Result) bool {
			if id == victim {
				r.Scalar = r.Scalar / 0 * 0
			}
			return true
		}, "non-finite"},
	}
	for _, c := range cases {
		expected, failed, failures := checkedRun(t, c.tamper)
		if expected == 0 {
			t.Fatalf("%s: no windows expected", c.name)
		}
		switch {
		case c.want == "" && failed != 0:
			t.Errorf("%s: %d failures on a faithful run:\n%s", c.name, failed, failures)
		case c.want != "" && (failed == 0 || !strings.Contains(failures, c.want)):
			t.Errorf("%s: want a failure mentioning %q, got %d failures:\n%s", c.name, c.want, failed, failures)
		}
	}
}

// A duplicate report of one window by one worker is a failure of its own.
func TestCheckerFlagsDuplicate(t *testing.T) {
	var again *spear.Result
	_, failed, failures := checkedRun(t, func(id int64, r *spear.Result) bool {
		if id == 3 {
			again = r
		}
		return true
	})
	if failed != 0 || again == nil {
		t.Fatalf("setup: %d failures\n%s", failed, failures)
	}
	block, sh, _ := loadgen.Input("dec_mean_tcp", 1, 0.02)
	w, _ := findWorkload("dec_mean_tcp")
	chk := newChecker(newReference(block, w.refSpec(sh)), 2, 1)
	chk.observe(0, *again, time.Now())
	chk.observe(0, *again, time.Now())
	if chk.failed != 1 || !strings.Contains(chk.failures[0], "reported twice") {
		t.Errorf("duplicate not flagged: %v", chk.failures)
	}
}

// Sampled windows beyond ε are violations, and only violations beyond
// the binomial allowance fail the run.
func TestContractAllowance(t *testing.T) {
	if got := binomialAllowance(400, 0.05); got < 30 || got > 36 {
		t.Errorf("allowance for 400 windows at 5%% = %d, want ≈33", got)
	}
	if binomialAllowance(0, 0.05) != 0 {
		t.Error("no windows, no allowance")
	}
	if e := rankError([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5); e != 0 {
		t.Errorf("rank error of the true median = %v", e)
	}
	if e := rankError([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 8.5); e != 0.3 {
		t.Errorf("rank error three ranks above the median = %v, want 0.3", e)
	}
}

// The closing tuple of a window is the first arrival whose timestamp
// reaches the window's end plus the watermark lag, across cycles.
func TestClosingTuple(t *testing.T) {
	block, sh, _ := loadgen.Input("dec_mean_tcp", 1, 0.02)
	w, _ := findWorkload("dec_mean_tcp")
	ref := newReference(block, w.refSpec(sh))
	n := int64(len(block.Tuples))
	// Ticks: timestamp = index, lag = one slide.
	if idx, ok := ref.closingTuple(8000, 2); !ok || idx != 9000 {
		t.Errorf("closing tuple of [0, 8000) = %d, %v; want 9000", idx, ok)
	}
	if idx, ok := ref.closingTuple(n+2000, 2); !ok || idx != n+3000 {
		t.Errorf("closing tuple in the second cycle = %d, %v; want %d", idx, ok, n+3000)
	}
	if _, ok := ref.closingTuple(2*n, 2); ok {
		t.Error("a window ending with the stream has no closing tuple")
	}
}

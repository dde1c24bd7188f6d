package bench

import (
	"fmt"
	"time"

	"spear"
	"spear/internal/obs"
)

// Checkpoint measures the throughput cost of barrier snapshots
// on the default workload (the DEC mean CQ, paper §5 parameters):
// checkpointing off, a 1s interval, and a 10s interval. The acceptance
// bar is a <10% throughput penalty at the 10s interval.
func Checkpoint(opt Options) ([]*Table, error) {
	t := &Table{
		Title: "Checkpoint overhead: DEC mean CQ, off vs 1s vs 10s intervals",
		Header: []string{"interval", "wall(s)", "tuples/s", "overhead", "ckpts",
			"snap bytes", "snap mean(ms)"},
	}
	n := opt.tuples(4_000_000)
	// Wall-clock intervals may not elapse within a short scaled run, so
	// a tuple-cadence config (~8 checkpoints whatever the scale) pins
	// down the per-snapshot cost alongside the off/1s/10s comparison.
	cadence := int64(n / 8)
	configs := []struct {
		label  string
		tuples int64
		iv     time.Duration
	}{
		{"off", 0, 0},
		{fmt.Sprintf("%dK tuples", cadence/1000), cadence, 0},
		{"1s", 0, time.Second},
		{"10s", 0, 10 * time.Second},
	}
	// Warmup: one discarded run so allocator/page-cache state does not
	// bias the first measured row.
	if _, err := runQuery("ckpt-warmup",
		decQuery(opt, false, spear.BackendSPEAr, decMeanBudget, paperWorkers, false)); err != nil {
		return nil, err
	}
	var baseThr float64
	for _, c := range configs {
		// Every row observes, "off" included, so the overhead column
		// compares like with like.
		ins := spear.NewInstruments()
		q := decQuery(opt, false, spear.BackendSPEAr, decMeanBudget, paperWorkers, false).ObserveWith(ins)
		if c.tuples > 0 || c.iv > 0 {
			q.CheckpointEvery(c.tuples, c.iv)
		}
		out, err := runQuery("ckpt-"+c.label, q)
		if err != nil {
			return nil, err
		}
		cm := ins.Checkpoint()
		thr := float64(n) / out.wall.Seconds()
		overhead := "-"
		if c.label == "off" {
			baseThr = thr
		} else if baseThr > 0 {
			overhead = fmt.Sprintf("%.1f%%", 100*(1-thr/baseThr))
		}
		t.Rows = append(t.Rows, []string{
			c.label,
			fmt.Sprintf("%.2f", out.wall.Seconds()),
			fmt.Sprintf("%.0f", thr),
			overhead,
			fmt.Sprint(cm.Completed.Load()),
			fmt.Sprint(cm.SnapshotBytes.Load()),
			histMs(&cm.SnapshotTime),
		})
	}
	t.Notes = append(t.Notes,
		"acceptance: the 10s interval must cost <10% throughput vs checkpointing off",
		"snapshot bytes stay ~constant per checkpoint: state is the budget-bounded sample, not the window",
	)
	return []*Table{t}, nil
}

// histMs renders a duration histogram's mean in milliseconds.
func histMs(h *obs.Histogram) string {
	if h.Count() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", h.Mean()/float64(time.Millisecond))
}

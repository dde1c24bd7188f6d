//go:build layerprobe

// Probe of the checkpoint layer: snapshotting a window manager's state
// mid-stream into the store and restoring a fresh manager from it.
package main

import (
	"spear/benchmark/layers/probe"
	"spear/internal/agg"
	"spear/internal/checkpoint"
	"spear/internal/core"
	"spear/internal/tuple"
	"spear/internal/window"
)

func main() {
	probe.Main(func(e *probe.Env) (map[string]float64, error) {
		store := e.NewStore()
		f := agg.Func{Op: agg.Mean}
		if e.Workload == "dec_median" {
			f = agg.Median()
		}
		newManager := func() (core.Manager, error) {
			cfg := core.Config{
				Spec:    window.Spec{Domain: window.TimeDomain, Range: e.Shape.Range, Slide: e.Shape.Slide},
				Agg:     f,
				Value:   tuple.FieldFloat(e.Shape.ValueField),
				Epsilon: 0.10, Confidence: 0.95, BudgetTuples: 200,
				Store: store, Key: "probe/ckpt", Seed: e.Seed,
				DeferStoreDeletes: true,
			}
			if e.Shape.KeyField >= 0 {
				cfg.KeyBy = tuple.FieldString(e.Shape.KeyField)
				cfg.BudgetTuples = 4000
				return core.NewGroupedManager(cfg)
			}
			return core.NewScalarManager(cfg)
		}
		mgr, err := newManager()
		if err != nil {
			return nil, err
		}
		// Stop mid-stream, with windows open.
		half := e.Input[:len(e.Input)/2]
		for i := 0; i < len(half); i += 64 {
			if _, err := core.IngestBatch(mgr, half[i:min(i+64, len(half))]); err != nil {
				return nil, err
			}
		}
		var op checkpoint.Operator
		e.Span("checkpoint.snapshot", func() { op, _, err = checkpoint.SnapshotBlob(store, "probe", 1, 0, mgr) })
		if err != nil {
			return nil, err
		}
		fresh, err := newManager()
		if err != nil {
			return nil, err
		}
		m := checkpoint.Manifest{ID: 1, Offset: int64(len(half)), Operators: []checkpoint.Operator{op}}
		e.Span("checkpoint.restore", func() { err = checkpoint.RestoreWorker(store, m, 0, fresh) })
		t := e.Totals()
		return map[string]float64{
			// Whole spans here, store calls included: a checkpoint is
			// not durable until its blob is.
			"checkpoint.snapshot_ms":    float64(t["checkpoint.snapshot"].Nanos) / 1e6,
			"checkpoint.snapshot_bytes": float64(op.Size),
			"checkpoint.restore_ms":     float64(t["checkpoint.restore"].Nanos) / 1e6,
		}, err
	})
}

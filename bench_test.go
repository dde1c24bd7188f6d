// Benchmarks regenerating the paper's evaluation, one per table and
// figure (§5). Each benchmark runs the corresponding experiment from
// internal/bench at a reduced stream scale so `go test -bench=.`
// completes in minutes; `cmd/spear-bench` runs the same experiments at
// the paper's scale and prints the full tables.
//
// Reported metric: wall time of the whole experiment (generation +
// engine runs for every engine/parameter in the figure). The per-window
// processing times the paper plots are printed by cmd/spear-bench.
package spear_test

import (
	"testing"

	"spear/internal/bench"
)

// benchScale keeps each experiment's streams small enough for
// benchmarking while still covering tens of windows.
const benchScale = 0.02

func runExperiment(b *testing.B, id string) {
	b.Helper()
	opt := bench.Options{Scale: benchScale, Seed: 1}
	sel := bench.Select(id)
	if len(sel) != 1 {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := sel[0].Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset summary).
func BenchmarkTable1Datasets(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig6Scalability regenerates Fig. 6 (DEC median processing
// time vs number of workers, exact vs SPEAr).
func BenchmarkFig6Scalability(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7Memory regenerates Fig. 7 (mean per-worker memory on
// DEC for the mean and median CQs).
func BenchmarkFig7Memory(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8aDECMean regenerates Fig. 8a (DEC mean: Storm vs
// Inc-Storm vs SPEAr).
func BenchmarkFig8aDECMean(b *testing.B) { runExperiment(b, "fig8a") }

// BenchmarkFig8bDECMedian regenerates Fig. 8b (DEC median: Storm vs
// SPEAr).
func BenchmarkFig8bDECMedian(b *testing.B) { runExperiment(b, "fig8b") }

// BenchmarkFig8cGCM regenerates Fig. 8c (GCM grouped mean with known
// group count).
func BenchmarkFig8cGCM(b *testing.B) { runExperiment(b, "fig8c") }

// BenchmarkFig8dDEBS regenerates Fig. 8d (DEBS grouped mean with sparse
// unknown groups).
func BenchmarkFig8dDEBS(b *testing.B) { runExperiment(b, "fig8d") }

// BenchmarkTable2CountMin regenerates Table 2 (SPEAr vs the CountMin
// sketch baseline on GCM and DEBS).
func BenchmarkTable2CountMin(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig9EndToEnd regenerates Fig. 9 (total processing time with
// count-based windows of growing range).
func BenchmarkFig9EndToEnd(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10Sensitivity regenerates Fig. 10 (GCM window-size
// sensitivity with a fixed budget).
func BenchmarkFig10Sensitivity(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11Error regenerates Fig. 11 (per-window relative error on
// DEC for budgets 250/500/1000).
func BenchmarkFig11Error(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12Budget regenerates Fig. 12 (DEC processing time vs
// budget, including the b=250 slower-than-exact regime).
func BenchmarkFig12Budget(b *testing.B) { runExperiment(b, "fig12") }

// Command spear-bench regenerates the tables and figures of the SPEAr
// paper's evaluation (§5) on the synthetic datasets.
//
// Usage:
//
//	spear-bench -experiment fig8d            # one experiment
//	spear-bench -experiment all -scale 0.2   # the whole evaluation
//	spear-bench -experiment adaptive -benchjson BENCH_adaptive.json
//	spear-bench -experiment fig8d -cpuprofile cpu.out -memprofile mem.out
//
// Scale 1.0 replays the paper's full stream lengths (4M/24M/56M tuples);
// smaller scales shorten the streams proportionally, preserving window
// sizes and rates. The -cpuprofile/-memprofile flags capture pprof
// profiles of the selected experiments for perf work on the engine.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"spear/internal/bench"
)

func main() {
	os.Exit(run())
}

// run holds the real main so deferred profile writers execute before
// the process exits (os.Exit in main would skip them).
func run() int {
	all := bench.IDs(bench.Experiments)
	var (
		experiment = flag.String("experiment", "all",
			"experiment id ("+strings.Join(all, ", ")+") or 'all'")
		scale      = flag.Float64("scale", 0.2, "fraction of the paper's stream lengths")
		seed       = flag.Int64("seed", 1, "random seed for datasets and sampling")
		benchJSON  = flag.String("benchjson", "", "also write machine-readable results to this path (adaptive)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	exps := bench.Select(*experiment)
	if len(exps) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s, all\n",
			*experiment, strings.Join(all, ", "))
		return 2
	}

	opt := bench.Options{Scale: *scale, Seed: *seed, BenchJSON: *benchJSON}
	fmt.Printf("spear-bench: scale=%g seed=%d experiments=%s\n",
		*scale, *seed, strings.Join(bench.IDs(exps), ","))
	for _, e := range exps {
		start := time.Now()
		tables, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		for _, t := range tables {
			t.Print(os.Stdout)
		}
		fmt.Printf("  [%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

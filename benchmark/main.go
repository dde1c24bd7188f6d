// Command benchmark is the repository's one benchmark: five workloads,
// six end-to-end metrics, a per-layer cost model and a traced run. See
// README.md in this directory for what each number means.
//
//	bash benchmark/run.sh                       every workload, timed and traced → benchmark/out/result.json
//	bash benchmark/run.sh --workload dec_median --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	compare  bool
	src      string // the benchmark's source directory (layer probes are built from it)
	build    string // where probe binaries go
	out      string // where result.json and trace.<workload>.json go
	spec     string // BENCHMARK.json, for -compare's bounds
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result as the last line (default: all, into <out>/result.json)")
	flag.Int64Var(&o.seed, "seed", 1, "input and sampling seed (README names the held-out seed)")
	flag.Float64Var(&o.seconds, "seconds", 24, "length of the measured phases, at the calibrated rates")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run and layer probes (per-layer metrics) instead of the timed phases")
	flag.Float64Var(&o.scale, "scale", 1, "shrink the input block (the smoke test's -quick pass)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result.json files given as arguments against BENCHMARK.json's bounds")
	flag.StringVar(&o.src, "src", "benchmark", "the benchmark's source directory")
	flag.StringVar(&o.build, "build", ".bench_build", "directory for built probe binaries")
	flag.StringVar(&o.out, "out", "", "output directory (default <src>/out)")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "the benchmark's contract file")
	flag.Parse()
	if o.out == "" {
		o.out = filepath.Join(o.src, "out")
	}
	// The reference box has two cores. Set-up, paced passes and probes
	// get both; a saturated pass gets what its workload says (run.go).
	runtime.GOMAXPROCS(2)

	if err := dispatch(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(o options) error {
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(o.spec, flag.Arg(0), flag.Arg(1))
	case o.workload == "":
		return runAll(o)
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	var res *workloadResult
	if o.trace == 1 {
		res, err = w.traced(o)
	} else {
		res, err = w.timed(o)
	}
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	// The contract's last line: exactly these four keys.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

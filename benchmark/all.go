package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"spear/benchmark/span"
)

// header says what machine and what code a result came from.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// result is benchmark/out/result.json: every workload, timed and traced.
type result struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

// commit is the revision the binary was built from, when the build was
// inside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// runAll runs every workload timed, then traced, each in a process of
// its own so that one workload's heap does not colour the next, and
// gathers their results into <out>/result.json. It fails if any window
// of any workload failed its check.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	res := result{Header: header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: o.seed, Seconds: o.seconds,
	}}
	failed := 0
	for _, w := range workloads {
		for trace, mode := range []string{"timed", "traced"} {
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(trace), "-scale", fmt.Sprint(o.scale),
				"-src", o.src, "-build", o.build, "-out", o.out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (%s): %w", w.name, mode, err)
			}
			blob, err := os.ReadFile(filepath.Join(o.out, fmt.Sprintf("result.%s.%s.json", w.name, mode)))
			if err != nil {
				return err
			}
			wr := &workloadResult{}
			if err := json.Unmarshal(blob, wr); err != nil {
				return err
			}
			res.Workloads = append(res.Workloads, wr)
			failed += wr.Failed
		}
	}
	path := filepath.Join(o.out, "result.json")
	if err := span.WriteFile(path, res); err != nil {
		return err
	}
	fmt.Printf("nproc %d  GOMAXPROCS %d  %s  commit %s  seed %d → %s\n",
		res.Header.NProc, res.Header.GOMAXPROCS, res.Header.GoVersion, res.Header.Commit, o.seed, path)
	if failed > 0 {
		return fmt.Errorf("%d windows failed their check", failed)
	}
	return nil
}

// compareFiles holds result file b against result file a under the
// bounds of the benchmark's contract file: one row per workload and
// end-to-end metric, and an error if any got worse by more than its
// bound.
func compareFiles(spec, a, b string) error {
	var contract struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := readJSON(spec, &contract); err != nil {
		return err
	}
	var ra, rb result
	if err := readJSON(a, &ra); err != nil {
		return err
	}
	if err := readJSON(b, &rb); err != nil {
		return err
	}
	timed := func(r result, workload string) *workloadResult {
		for _, w := range r.Workloads {
			if w.Workload == workload && w.Mode == "timed" {
				return w
			}
		}
		return nil
	}
	worse := 0
	fmt.Printf("%-16s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wa := range ra.Workloads {
		wb := timed(rb, wa.Workload)
		if wa.Mode != "timed" || wb == nil {
			continue
		}
		for _, m := range contract.EndToEnd {
			va, vb := wa.Metrics[m.Name].Value, wb.Metrics[m.Name].Value
			if va == nil || vb == nil || *va == 0 {
				continue
			}
			// change is the relative movement in the bad direction.
			change := (*vb - *va) / *va
			if m.Better == "higher" {
				change = -change
			}
			verdict := "within bound"
			switch {
			case change > m.Bound:
				verdict = "WORSE"
				worse++
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-16s %-20s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n",
				wa.Workload, m.Name, *va, *vb, 100*(*vb-*va) / *va, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

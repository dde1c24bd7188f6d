package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"spear/benchmark/layers/probe"
)

// layerMetric names one per-layer metric and where it comes from: a
// layer probe (probe = the layer's directory under layers/) or the
// harness's own traced-mode runs (probe = "").
type layerMetric struct {
	name, unit, probe string
}

// layerMetrics is every per-layer metric the traced run reports, in
// BENCHMARK.json's order. A probe that no longer builds or runs leaves
// its metrics null; nothing else is affected.
var layerMetrics = []layerMetric{
	{"loadgen.next_ns_per_tuple", "ns", ""},
	{"loadgen.lag_p99_ms", "ms", ""},
	{"loadgen.latency_p99_ms", "ms", ""},
	{"tuple.encode_ns_per_tuple", "ns", "tuple"},
	{"tuple.decode_ns_per_tuple", "ns", "tuple"},
	{"tuple.bytes_per_tuple", "bytes", "tuple"},
	{"col.pivot_ns_per_tuple", "ns", "col"},
	{"col.unpivot_ns_per_tuple", "ns", "col"},
	{"spe.hop_ns_per_tuple", "ns", "spe"},
	{"spe.map_hop_ns_per_tuple", "ns", "spe"},
	{"spe.fields_route_ns_per_tuple", "ns", "spe"},
	{"spe.fused_ns_per_tuple", "ns", "spe"},
	{"spe.allocs_per_tuple", "count", "spe"},
	{"spe.alloc_bytes_per_tuple", "bytes", "spe"},
	{"window.assign_ns_per_tuple", "ns", "window"},
	{"sample.reservoir_ns_per_tuple", "ns", "sample"},
	{"sample.grouped_ns_per_tuple", "ns", "sample"},
	{"stats.welford_ns_per_tuple", "ns", "stats"},
	{"agg.exact_us_per_window", "us", "agg"},
	{"agg.estimate_us_per_window", "us", "agg"},
	{"core.scalar_ingest_ns_per_tuple", "ns", "core"},
	{"core.grouped_ingest_ns_per_tuple", "ns", "core"},
	{"core.column_ingest_ns_per_tuple", "ns", "core"},
	{"core.fire_sampled_us", "us", "core"},
	{"core.fire_exact_us", "us", "core"},
	{"core.grouped_fire_us", "us", "core"},
	{"core.mem_bytes_peak", "bytes", ""},
	{"core.accelerated_frac", "frac", ""},
	{"core.contract_coverage", "frac", ""},
	{"storage.store_calls", "count", ""},
	{"storage.get_calls", "count", ""},
	{"storage.store_us_p50", "us", ""},
	{"storage.get_us_p50", "us", ""},
	{"storage.bytes_stored_per_tuple", "bytes", ""},
	{"storage.tuples_fetched_per_window", "count", ""},
	{"spill.store_block_ns_per_tuple", "ns", "spill"},
	{"spill.get_wait_us_per_window", "us", "spill"},
	{"spill.cache_hit_frac", "frac", ""},
	{"spill.prefetch_hit_frac", "frac", ""},
	{"spill.chunk_encode_ns_per_tuple", "ns", "spill"},
	{"spill.chunk_decode_ns_per_tuple", "ns", "spill"},
	{"spill.chunk_ratio", "ratio", "spill"},
	{"transport.frame_encode_ns_per_tuple", "ns", "transport"},
	{"transport.frame_decode_ns_per_tuple", "ns", "transport"},
	{"transport.bytes_per_tuple", "bytes", ""},
	{"transport.frames_per_ktuple", "count", ""},
	{"transport.reconnects", "count", ""},
	{"transport.tcp_overhead_ratio", "ratio", ""},
	{"checkpoint.snapshot_ms", "ms", "checkpoint"},
	{"checkpoint.snapshot_bytes", "bytes", "checkpoint"},
	{"checkpoint.restore_ms", "ms", "checkpoint"},
	{"obs.overhead_frac", "frac", ""},
	{"obs.snapshot_us", "us", ""},
	{"trace.overhead_frac", "frac", ""},
}

// probeLayers is the set of probe packages, in layerMetrics' order.
func probeLayers() []string {
	var out []string
	seen := map[string]bool{"": true}
	for _, m := range layerMetrics {
		if !seen[m.probe] {
			seen[m.probe] = true
			out = append(out, m.probe)
		}
	}
	return out
}

// probeTuples caps a probe's input: enough for a few dozen windows on
// every workload, little enough that eleven probes fit in a run.
const probeTuples = 1_000_000

// buildProbes compiles the layer probes into dir. It tries all of them
// in one go invocation first; only if that fails does it build them one
// by one to find which layers are broken, returning those with the
// compiler's first complaint.
func buildProbes(o options, dir string) map[string]string {
	build := func(out, pkg string) ([]byte, error) {
		cmd := exec.Command("go", "build", "-tags", "layerprobe", "-o", out, pkg)
		cmd.Dir = o.src
		return cmd.CombinedOutput()
	}
	if _, err := build(dir+string(filepath.Separator), "./layers/..."); err == nil {
		return nil
	}
	broken := map[string]string{}
	for _, layer := range probeLayers() {
		if msg, err := build(filepath.Join(dir, layer), "./layers/"+layer); err != nil {
			broken[layer] = fmt.Sprintf("%v: %s", err, firstComplaint(string(msg)))
		}
	}
	return broken
}

// firstComplaint is the first line of the go tool's output that is not a
// "# package" header.
func firstComplaint(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			return line
		}
	}
	return ""
}

// runProbes builds and runs every layer probe over the workload's input
// and returns their outputs by layer, plus a note for each layer that
// yielded nothing.
func runProbes(o options, w *workload, tuples int) (map[string]probe.Output, []string) {
	dir, err := filepath.Abs(filepath.Join(o.build, "probes"))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		return nil, []string{"layer probes: " + err.Error()}
	}
	broken := buildProbes(o, dir)
	outs := map[string]probe.Output{}
	var notes []string
	for _, layer := range probeLayers() {
		if msg, bad := broken[layer]; bad {
			notes = append(notes, fmt.Sprintf("layer %s: probe does not build (%s); its metrics are null", layer, msg))
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, filepath.Join(dir, layer),
			"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-scale", fmt.Sprint(o.scale),
			"-tuples", fmt.Sprint(tuples), "-store-delay", w.storePerOp.String())
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		blob, err := cmd.Output()
		cancel()
		var out probe.Output
		if err == nil {
			err = json.Unmarshal(blob, &out)
		}
		if err != nil {
			line, _, _ := strings.Cut(strings.TrimSpace(stderr.String()), "\n")
			notes = append(notes, fmt.Sprintf("layer %s: probe failed (%v: %s); its metrics are null", layer, err, line))
			continue
		}
		outs[layer] = out
	}
	return outs, notes
}

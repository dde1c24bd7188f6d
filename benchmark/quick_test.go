package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The -quick pass: every workload at a few percent of its size through
// the whole timed path — set-up, saturated and paced rounds, checker on
// — so that the repository's tests cover the harness. Numbers from a
// run this short mean nothing; the windows must still all check out.
func TestQuickPass(t *testing.T) {
	o := options{seed: 1, seconds: 0.2, scale: 0.05, out: t.TempDir()}
	for _, w := range workloads {
		res, err := w.timed(o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: %d windows expected, %d failed: %v", w.name, res.Attempted, res.Failed, res.Failures)
		}
		for name, m := range res.Metrics {
			if m.Value == nil {
				t.Errorf("%s: %s is null", w.name, name)
			}
		}
	}
}

// BENCHMARK.json and the harness must name the same metrics, and the
// contract's workloads must be the harness's bounded ones: the driver
// refuses a run that prints anything else.
func TestContractMatchesHarness(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var c struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	var bounded []*workload
	for _, w := range workloads {
		if !w.diagnostic {
			bounded = append(bounded, w)
		}
	}
	if len(c.Workloads) != len(bounded) {
		t.Fatalf("%d workloads in the contract, %d bounded ones in the harness", len(c.Workloads), len(bounded))
	}
	for i, w := range bounded {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: contract has %q (%q), harness %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(c.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in the contract, %d in the harness", len(c.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if c.PerLayer[i].Name != m.name || c.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: contract has %s [%s], harness %s [%s]", i, c.PerLayer[i].Name, c.PerLayer[i].Unit, m.name, m.unit)
		}
	}
	want := map[string]string{}
	for _, m := range endToEnd {
		want[m.name] = m.unit
	}
	for _, m := range c.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s [%s] is not what the harness reports (%q)", m.Name, m.Unit, want[m.Name])
		}
		delete(want, m.Name)
	}
	for name := range want {
		t.Errorf("end-to-end metric %s is missing from the contract", name)
	}
}

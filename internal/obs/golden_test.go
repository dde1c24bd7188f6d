package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spear/internal/spill"
	"spear/internal/storage"
	"spear/internal/tuple"
)

// stubControl is a ControlSource with every field distinct.
type stubControl struct{}

func (stubControl) ControlSnapshot() *ControlSnapshot {
	return &ControlSnapshot{
		SLONanos: 250_000_000, TargetBudget: 640, MinBudget: 62, MaxBudget: 1000,
		Shedding: true, LagNanos: 1_500_000_000, QueueFill: 0.75,
		SourceRate: 125000.5, ShedRate: 98000.25,
		Tighten: 11, Expand: 12, ShedOn: 13, ShedOff: 14, Hold: 15,
	}
}

// goldenInstruments builds the fixed state testdata/golden_* were
// written from at the last commit that kept the worker bundles in a
// package of their own, apart from this one: two workers with every counter distinct and non-zero
// and a ProcTime past HistogramCap, an async spill plane, the checkpoint
// bundle, one transport, a controller and the trace ring. The goldens
// have since lost the barrier-alignment stall entries (one JSON key, one
// exposition family) together with the multi-sender alignment they
// timed, and the spill chunk codec's two byte counters (two JSON keys,
// two families) together with the codec store under the plane, so the
// store's byte counters count column images.
func goldenInstruments(t *testing.T) *Instruments {
	t.Helper()
	in := NewInstruments()
	for wi, name := range []string{"q[0]", "q[1]"} {
		base := int64(1000 * (wi + 1))
		w := in.Worker(name)
		w.TuplesIn.Add(base + 1)
		w.WindowsTotal.Add(base + 2)
		w.WindowsAccelerated.Add(base + 3)
		w.WindowsExact.Add(base + 4)
		w.WindowsSpilled.Add(base + 5)
		w.WindowsShed.Add(base + 6)
		w.LateDropped.Add(base + 7)
		w.EstimationFailures.Add(base + 8)
		w.TuplesProcessedFull.Add(base + 9)
		w.TuplesShed.Add(base + 10)
		w.BudgetTuples.Set(base + 11)
		w.MemBytes.Set(base + 13)
		w.MemBytes.Set(base + 12) // current below peak
		for i := 0; i < 5000; i++ {
			w.ProcTime.Observe(float64(base + int64(i*37%5000)))
		}
		w.SetWatermark(int64(wi+3) * 1_000_000_000)
	}
	in.PublishSource(123456, 5_000_000_000)
	in.RegisterEdge("spout→q[0]", 8, func() int { return 3 })
	in.RegisterEdge("spout→q[1]", 8, func() int { return 8 })
	in.RegisterSink(4, func() int { return 1 })
	for _, n := range []int{1, 2, 5, 64, 64, 300} {
		in.Batches.Record(n)
	}

	plane := spill.NewPlane(storage.NewMemStore(), spill.Options{Workers: 1})
	t.Cleanup(func() { _ = plane.Close() })
	chunk := func(ts int64) []tuple.Tuple {
		out := make([]tuple.Tuple, 16)
		for i := range out {
			out[i] = tuple.New(ts+int64(i), tuple.Float(float64(i)))
		}
		return out
	}
	for _, k := range []string{"a", "b"} {
		if err := plane.Store(k, chunk(100)); err != nil {
			t.Fatal(err)
		}
	}
	plane.Prefetch("a")
	if err := plane.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "a", "b"} {
		if _, err := plane.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := plane.Delete("b"); err != nil {
		t.Fatal(err)
	}
	in.SetSpillPlane(plane)

	cm := in.Checkpoint()
	cm.Completed.Add(21)
	cm.Failed.Add(22)
	cm.SnapshotBytes.Add(23000)
	cm.LastBytes.Set(2400)
	cm.RecoveryTime.Set(25_000_000)
	cm.SnapshotTime.Observe(2_000_000)
	cm.SnapshotTime.Observe(4_000_000)

	tr := in.RegisterTransport("node0")
	tr.TxFrames.Add(31)
	tr.RxFrames.Add(32)
	tr.TxBytes.Add(33000)
	tr.RxBytes.Add(34000)
	tr.Reconnects.Add(35)
	tr.CreditStalls.Add(36)

	in.SetController(stubControl{})
	ring := in.EnableTrace(1, 8)
	for i := 0; i < 3; i++ {
		ring.Record(TraceEvent{Kind: TraceIngest, Stage: "spout", Ts: int64(i)})
	}
	return in
}

// TestGoldenSnapshotAndExposition holds /snapshot and /metrics to what
// the two-package telemetry served for the same state: the JSON decodes
// equal key for key and value for value, and the exposition keeps every
// line in its order, adding only the family the old writer had lost.
func TestGoldenSnapshotAndExposition(t *testing.T) {
	s := goldenInstruments(t).Snapshot(time.Unix(1_700_000_000, 0).UTC())

	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	wantJS, err := os.ReadFile("testdata/golden_snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(js, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantJS, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot JSON differs from the golden:\n got %s", js)
	}

	var prom bytes.Buffer
	WritePrometheus(&prom, s)
	wantProm, err := os.ReadFile("testdata/golden_metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimRight(string(wantProm), "\n"), "\n")
	var added []string
	for _, line := range strings.Split(strings.TrimRight(prom.String(), "\n"), "\n") {
		if len(wantLines) > 0 && line == wantLines[0] {
			wantLines = wantLines[1:]
			continue
		}
		added = append(added, line)
	}
	if len(wantLines) > 0 {
		t.Errorf("exposition lost or reordered golden lines, first: %q", wantLines[0])
	}
	const fam = "spear_worker_tuples_processed_full_total"
	wantAdded := []string{
		"# HELP " + fam + " Tuples scanned by exact processing per stateful worker.",
		"# TYPE " + fam + " counter",
		fam + `{worker="q[0]"} 1009`,
		fam + `{worker="q[1]"} 2009`,
	}
	if !reflect.DeepEqual(added, wantAdded) {
		t.Errorf("exposition added %q, want only %q", added, wantAdded)
	}
}

// TestBundleFieldsReachSnapshotAndExposition pins the class of bug that
// lost tuples_processed_full from /metrics: every field of the three
// bundles the engine counts into, moved alone, must change both the
// JSON snapshot and the exposition, so a field added to a bundle and
// forgotten downstream fails here instead of disappearing.
func TestBundleFieldsReachSnapshotAndExposition(t *testing.T) {
	render := func(in *Instruments) (string, string) {
		s := in.Snapshot(time.Unix(0, 0).UTC())
		js, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var prom strings.Builder
		WritePrometheus(&prom, s)
		return string(js), prom.String()
	}
	bundles := map[string]func(*Instruments) any{
		"Worker":            func(in *Instruments) any { return in.Worker("w") },
		"CheckpointMetrics": func(in *Instruments) any { return in.Checkpoint() },
		"TransportObs":      func(in *Instruments) any { return in.RegisterTransport("p") },
	}
	for name, bundle := range bundles {
		base := NewInstruments()
		typ := reflect.TypeOf(bundle(base)).Elem()
		baseJS, baseProm := render(base)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Name == "Name" || !f.IsExported() {
				// The label, and Worker's watermark pair: written through
				// SetWatermark, which TestSnapshotWatermarkLag and
				// TestWritePrometheus follow to both outputs.
				continue
			}
			in := NewInstruments()
			switch p := reflect.ValueOf(bundle(in)).Elem().Field(i).Addr().Interface().(type) {
			case *atomic.Int64:
				p.Store(7)
			case *Gauge:
				p.Set(7)
			case *Histogram:
				p.Observe(7)
			default:
				t.Fatalf("%s.%s: field type %s is new to this test; teach it how to move one", name, f.Name, f.Type)
			}
			js, prom := render(in)
			if js == baseJS {
				t.Errorf("%s.%s does not reach the JSON snapshot", name, f.Name)
			}
			if prom == baseProm {
				t.Errorf("%s.%s does not reach the Prometheus exposition", name, f.Name)
			}
		}
	}
}

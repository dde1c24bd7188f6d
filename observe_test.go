package spear

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/leakcheck"
	"spear/internal/obs"
	"spear/internal/storage"
)

// TestObserveEndToEndScrape runs a real query with the full
// observability plane on — instruments, HTTP server, lifecycle trace —
// and scrapes /metrics from inside the sink, i.e. while tuples are still
// flowing. This is the acceptance gate's shape: a mid-run GET /metrics
// must serve valid Prometheus text carrying the queue-depth,
// watermark-lag, batch-occupancy, spill, and checkpoint families.
func TestObserveEndToEndScrape(t *testing.T) {
	leakcheck.Check(t)
	const n = 20_000
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = NewTuple(int64(i)*int64(time.Second), Float(float64(i%100)))
	}

	ins := NewInstruments()
	// Trace everything with a ring large enough that the early ingest
	// events survive to the end of the run.
	ins.EnableTrace(1, 3*n)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ServeObservability(lis, ins)()
	addr := lis.Addr().String()
	var (
		scrapeOnce sync.Once
		metricsTxt string
		snapTxt    string
		traceTxt   string
		scrapeErr  error
	)
	get := func(path string) (string, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}

	buf := &sinkBuf{}
	sum, err := NewQuery("obsq").
		Source(FromSlice(ts)).
		TumblingWindow(500*time.Second).
		Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
		BudgetTuples(64).
		Error(0.05, 0.95).
		Seed(3).
		Parallelism(2).
		SpillStore(storage.NewMemStore()).
		CheckpointEvery(5_000, 0).
		ObserveWith(ins).
		Run(func(w int, r Result) {
			buf.add(w, r)
			scrapeOnce.Do(func() {
				// First result: the pipeline is still pushing tuples, so
				// this is a genuinely mid-run scrape.
				if metricsTxt, scrapeErr = get("/metrics"); scrapeErr != nil {
					return
				}
				if snapTxt, scrapeErr = get("/snapshot"); scrapeErr != nil {
					return
				}
				traceTxt, scrapeErr = get("/trace")
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	if metricsTxt == "" {
		t.Fatal("the run produced no results, so no scrape happened")
	}

	for _, fam := range []string{
		"spear_source_tuples_total",
		"spear_edge_queue_depth",
		"spear_edge_queue_capacity",
		"spear_sink_queue_depth",
		"spear_worker_watermark_lag_seconds",
		"spear_batch_occupancy",
		"spear_worker_windows_total",
		"spear_spill_ops_total",
		"spear_checkpoint_completed_total",
	} {
		if !strings.Contains(metricsTxt, "# TYPE "+fam+" ") {
			t.Errorf("mid-run /metrics missing family %s", fam)
		}
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(snapTxt), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if len(snap.Edges) == 0 || len(snap.Workers) == 0 {
		t.Errorf("mid-run snapshot has no edges/workers: %+v", snap)
	}
	var tr struct {
		Recorded uint64 `json:"recorded"`
	}
	if err := json.Unmarshal([]byte(traceTxt), &tr); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}

	// Post-run, the caller-owned instruments stay inspectable.
	final := ins.Snapshot(time.Now())
	if final.SourceTuples != n {
		t.Errorf("final source tuples = %d, want %d", final.SourceTuples, n)
	}
	if final.Occupancy.Count == 0 {
		t.Error("no batches recorded in the occupancy histogram")
	}
	if sum.Windows == 0 || len(buf.sorted()) == 0 {
		t.Fatalf("no windows produced: %+v", sum)
	}

	// The n=1 trace saw the whole lifecycle: every kind appears.
	kinds := map[string]bool{}
	for _, ev := range ins.Trace().Events() {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{obs.TraceIngest, obs.TraceAssign, obs.TraceFire, obs.TraceEmit} {
		if !kinds[k] {
			t.Errorf("trace never recorded a %q event (got %v)", k, kinds)
		}
	}
}

func TestObserveValidation(t *testing.T) {
	q := NewQuery("v").Source(FromSlice([]Tuple{NewTuple(0, Float(1))})).
		TumblingWindow(time.Second).Count().ObserveWith(nil)
	if _, err := q.Run(func(int, Result) {}); err == nil {
		t.Error("nil instruments accepted")
	}
}

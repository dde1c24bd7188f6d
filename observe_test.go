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

// TestMergedSourceCheckpointResume is the recovery-identity gate for
// merged sources: a query reading Merge(evens, odds) checkpoints, dies,
// and resumes — the union of both legs must equal an uninterrupted
// reference run window for window. Before mergeSpout implemented
// SeekTo, recovery over a merge silently replayed from the wrong
// position.
func TestMergedSourceCheckpointResume(t *testing.T) {
	const (
		n      = 2000
		winSec = 100
		stopAt = 1100
	)
	mk := func(hi int, parity int) []Tuple {
		var ts []Tuple
		for i := parity; i < hi; i += 2 {
			ts = append(ts, NewTuple(int64(i)*int64(time.Second), Float(float64(i%50))))
		}
		return ts
	}
	build := func(src Source, store storage.SpillStore) *Query {
		return NewQuery("mergeckpt").
			Source(src).
			TumblingWindow(winSec*time.Second).
			Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
			BudgetTuples(64).
			Error(0.05, 0.95).
			Seed(11).
			SpillStore(store)
	}

	ref := &sinkBuf{}
	if _, err := build(Merge(FromSlice(mk(n, 0)), FromSlice(mk(n, 1))), storage.NewMemStore()).Run(ref.add); err != nil {
		t.Fatal(err)
	}
	refRes := ref.sorted()
	if len(refRes) != n/winSec {
		t.Fatalf("reference: %d windows, want %d", len(refRes), n/winSec)
	}

	// Leg 1: the merged stream ends early (the process "dies").
	store := storage.NewMemStore()
	tel := NewInstruments()
	leg1 := &sinkBuf{}
	if _, err := build(Merge(FromSlice(mk(stopAt, 0)), FromSlice(mk(stopAt, 1))), store).
		CheckpointEvery(400, 0).
		ObserveWith(tel).
		Run(leg1.add); err != nil {
		t.Fatal(err)
	}
	if tel.Checkpoint().Completed.Load() < 1 {
		t.Fatal("leg 1 committed no checkpoints")
	}

	// Leg 2: the full merged stream recovers and resumes.
	leg2 := &sinkBuf{}
	if _, err := build(Merge(FromSlice(mk(n, 0)), FromSlice(mk(n, 1))), store).
		CheckpointEvery(400, 0).
		Recover().
		Run(leg2.add); err != nil {
		t.Fatal(err)
	}
	if len(leg2.sorted()) >= len(refRes) {
		t.Fatalf("leg 2 emitted %d windows; recovery did not skip the prefix", len(leg2.sorted()))
	}

	merged := map[int64]Result{}
	for _, r := range leg1.sorted() {
		merged[r.Start] = r
	}
	for _, r := range leg2.sorted() {
		if prev, dup := merged[r.Start]; dup {
			if prev.Scalar != r.Scalar || prev.N != r.N || prev.Mode != r.Mode {
				t.Errorf("window @%d diverged across legs: %+v vs %+v", r.Start, prev, r)
			}
		}
		merged[r.Start] = r
	}
	if len(merged) != len(refRes) {
		t.Fatalf("merged %d windows, want %d", len(merged), len(refRes))
	}
	for _, w := range refRes {
		g, ok := merged[w.Start]
		if !ok {
			t.Errorf("window @%d missing from merged output", w.Start)
			continue
		}
		if g.Scalar != w.Scalar || g.N != w.N || g.SampleN != w.SampleN || g.Mode != w.Mode {
			t.Errorf("window @%d: got %+v, want %+v", w.Start, g, w)
		}
	}
}

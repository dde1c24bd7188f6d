package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/leakcheck"
	"spear/internal/spill"
	"spear/internal/storage"
)

// fixedClock returns a deterministic clock reading t.
func fixedClock(t time.Time) func() time.Time {
	return func() time.Time { return t }
}

func TestBatchOccupancyBuckets(t *testing.T) {
	in := NewInstruments()
	for _, size := range []int{1, 1, 2, 5, 64, 300} {
		in.Batches.Record(size)
	}
	s := in.Snapshot(time.Unix(0, 0))
	if s.Occupancy.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Occupancy.Count)
	}
	if s.Occupancy.Sum != 373 {
		t.Fatalf("sum = %d, want 373", s.Occupancy.Sum)
	}
	// Cumulative per le: 1→2, 2→3, 4→3, 8→4, …, 64→5, 128→5, 256→5,
	// 512→6, 1024→6, +Inf→6.
	want := map[int]int64{1: 2, 2: 3, 4: 3, 8: 4, 16: 4, 32: 4, 64: 5, 128: 5, 256: 5, 512: 6, 1024: 6, -1: 6}
	for _, b := range s.Occupancy.Buckets {
		if b.Cumulative != want[b.Le] {
			t.Errorf("bucket le=%d cumulative = %d, want %d", b.Le, b.Cumulative, want[b.Le])
		}
	}
	if last := s.Occupancy.Buckets[len(s.Occupancy.Buckets)-1]; last.Le != -1 {
		t.Errorf("last bucket le = %d, want -1 (+Inf)", last.Le)
	}
}

func TestSnapshotWatermarkLag(t *testing.T) {
	in := NewInstruments()
	w := in.Worker("win[0]")
	behind := in.Worker("win[1]")

	// Before any watermark or source progress: nothing valid.
	s := in.Snapshot(time.Unix(0, 0))
	if len(s.Workers) != 2 || s.Workers[0].Valid {
		t.Fatalf("premature validity: %+v", s.Workers)
	}

	in.PublishSource(128, 5_000_000_000)
	w.SetWatermark(3_000_000_000)
	behind.SetWatermark(9_000_000_000) // outran the high-water mark
	s = in.Snapshot(time.Unix(0, 0))
	if !s.Workers[0].Valid || s.Workers[0].LagNanos != 2_000_000_000 {
		t.Errorf("worker 0 lag = %+v, want valid 2s", s.Workers[0])
	}
	if !s.Workers[1].Valid || s.Workers[1].LagNanos != 0 {
		t.Errorf("worker 1 lag = %+v, want clamped to 0", s.Workers[1])
	}
	if s.SourceTuples != 128 {
		t.Errorf("source tuples = %d, want 128", s.SourceTuples)
	}
}

// TestSnapshotConcurrentWriters hammers registration, publication, and
// occupancy recording while snapshots are folded concurrently; run
// under -race this is the consistency gate for the scrape path.
func TestSnapshotConcurrentWriters(t *testing.T) {
	leakcheck.Check(t)
	in := NewInstruments()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var w *Worker
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Registration races with snapshots early on; the steady
				// state churns only the atomic instruments.
				if i < 32 {
					in.RegisterEdge(fmt.Sprintf("e%d[%d]", g, i), 8, func() int { return i })
					w = in.Worker(fmt.Sprintf("w%d[%d]", g, i))
				}
				w.SetWatermark(int64(i))
				in.PublishSource(int64(i), int64(i))
				in.Batches.Record(i & 127)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := in.Snapshot(time.Unix(0, int64(i)))
		var sb strings.Builder
		WritePrometheus(&sb, s)
		if !strings.Contains(sb.String(), "spear_source_tuples_total") {
			t.Fatal("snapshot lost the source family")
		}
	}
	close(stop)
	wg.Wait()
}

func TestTraceRingBounded(t *testing.T) {
	tr := NewTraceRing(1, 4)
	tr.clock = fixedClock(time.Unix(0, 500))
	for i := 0; i < 10; i++ {
		tr.Record(TraceEvent{Kind: TraceIngest, Ts: int64(i)})
	}
	if tr.Recorded() != 10 {
		t.Fatalf("recorded = %d, want 10", tr.Recorded())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d (oldest-first)", i, ev.Seq, want)
		}
		if ev.Wall != 500 {
			t.Errorf("event %d wall = %d, want injected 500", i, ev.Wall)
		}
	}
}

func TestTraceSamplingConsistent(t *testing.T) {
	tr := NewTraceRing(16, 8)
	hits := 0
	for ts := int64(0); ts < 4096; ts++ {
		if tr.SampleTs(ts) {
			hits++
			// The same timestamp must sample identically at every stage.
			if !tr.SampleTs(ts) {
				t.Fatal("SampleTs is not deterministic")
			}
		}
	}
	// Roughly 1/16 of 4096 = 256; the hash should stay within 3x.
	if hits < 85 || hits > 768 {
		t.Fatalf("SampleTs hit %d of 4096 at n=16, want ~256", hits)
	}
	if !NewTraceRing(1, 1).SampleTs(12345) {
		t.Fatal("n=1 must sample everything")
	}
}

// validatePrometheus is a minimal exposition-format lint: every
// non-comment line is `name{labels} value` or `name value`, and every
// sample's base family was declared with # TYPE first.
func validatePrometheus(t *testing.T, text string) map[string]bool {
	t.Helper()
	declared := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			declared[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && declared[strings.TrimSuffix(name, suf)] {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if !declared[base] {
			t.Fatalf("line %d: sample %q has no # TYPE declaration", ln+1, name)
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("line %d: no value: %q", ln+1, line)
		}
	}
	return declared
}

func TestWritePrometheus(t *testing.T) {
	in := NewInstruments()
	// A hostile worker name exercises label escaping.
	w := in.Worker("win\"0\\x\n[1]")
	w.TuplesIn.Add(7)
	in.SetSpillPlane(spill.NewPlane(storage.NewMemStore(), spill.Options{}))
	in.Checkpoint()
	in.RegisterEdge("map→win[0]", 8, func() int { return 3 })
	in.RegisterSink(4, func() int { return 1 })
	in.Worker("win[0]").SetWatermark(1_000_000_000)
	in.PublishSource(10, 2_000_000_000)
	in.Batches.Record(64)

	var sb strings.Builder
	WritePrometheus(&sb, in.Snapshot(time.Unix(3, 0)))
	text := sb.String()
	declared := validatePrometheus(t, text)

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
		"spear_trace_events_total",
	} {
		if !declared[fam] {
			t.Errorf("family %s not declared", fam)
		}
	}
	if !strings.Contains(text, `spear_worker_tuples_total{worker="win\"0\\x\n[1]"} 7`) {
		t.Errorf("label escaping broken:\n%s", text)
	}
	if !strings.Contains(text, "spear_worker_watermark_lag_seconds{worker=\"win[0]\"} 1\n") {
		t.Errorf("lag sample missing:\n%s", text)
	}
	if !strings.Contains(text, `spear_batch_occupancy_bucket{le="+Inf"} 1`) {
		t.Errorf("+Inf bucket missing:\n%s", text)
	}
}

func TestServerLifecycle(t *testing.T) {
	leakcheck.Check(t)
	in := NewInstruments()
	in.PublishSource(5, 1_000_000_000)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	stop := Serve(lis, in)

	get := func(path string) (string, string, int) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type"), resp.StatusCode
	}

	if body, _, code := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	body, ct, code := get("/metrics")
	if code != http.StatusOK || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics = %d, content type %q", code, ct)
	}
	validatePrometheus(t, body)
	if !strings.Contains(body, "spear_source_tuples_total 5\n") {
		t.Errorf("/metrics missing live source count:\n%s", body)
	}

	body, ct, code = get("/snapshot")
	if code != http.StatusOK || !strings.Contains(ct, "application/json") {
		t.Fatalf("/snapshot = %d, content type %q", code, ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if snap.SourceTuples != 5 {
		t.Errorf("/snapshot source tuples = %d, want 5", snap.SourceTuples)
	}
	// /snapshot is folded per request, like /metrics: never a stale tick.
	in.PublishSource(7, 2_000_000_000)
	body, _, _ = get("/snapshot")
	if err := json.Unmarshal([]byte(body), &snap); err != nil || snap.SourceTuples != 7 {
		t.Errorf("/snapshot after a publish: source tuples = %d (%v), want 7", snap.SourceTuples, err)
	}

	if _, _, code := get("/trace"); code != http.StatusNotFound {
		t.Fatalf("/trace with tracing off = %d, want 404", code)
	}
	in.EnableTrace(1, 16)
	in.Trace().Record(TraceEvent{Kind: TraceIngest, Stage: "spout", Ts: 9})
	body, _, code = get("/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d", code)
	}
	var tr struct {
		Recorded uint64       `json:"recorded"`
		Events   []TraceEvent `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if tr.Recorded != 1 || len(tr.Events) != 1 || tr.Events[0].Kind != TraceIngest {
		t.Fatalf("/trace = %+v", tr)
	}

	stop()
	stop() // a second stop is a no-op
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still answering after Stop")
	}
}

// TestServerScrapeUnderWriters scrapes /metrics while instruments churn:
// the endpoint must keep answering without ever touching engine locks.
func TestServerScrapeUnderWriters(t *testing.T) {
	leakcheck.Check(t)
	in := NewInstruments()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer Serve(lis, in)()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := in.Worker("w[0]")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			in.PublishSource(int64(i), int64(i))
			in.Batches.Record(i & 63)
			w.SetWatermark(int64(i))
			if i < 16 {
				in.Worker(fmt.Sprintf("w[%d]", i+1))
			}
		}
	}()
	for i := 0; i < 25; i++ {
		resp, err := http.Get("http://" + lis.Addr().String() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %d: %d", i, resp.StatusCode)
		}
		validatePrometheus(t, string(body))
	}
	close(stop)
	wg.Wait()
}

package spear

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/storage"
)

// These tests run the distributed runtime across real OS process
// boundaries: the test binary re-execs itself as shard nodes (the
// TestDistShardHelper entry point, inert in normal runs), the parent
// drives the source, and the processes meet over loopback TCP.

// buildDistProcQuery is the single query definition both the parent
// and the re-exec'd shard helpers construct — the handshake's topology
// hash verifies they agree. dir selects a shared FileStore for the
// checkpointed kill/recover test; empty keeps the default MemStore.
func buildDistProcQuery(t testing.TB, kind, dir string) *Query {
	q := NewQuery("distp"+kind).
		Percentile(func(tp Tuple) float64 { return tp.Vals[0].AsFloat() }, 0.9).
		BudgetTuples(96).
		Error(0.10, 0.95).
		Parallelism(2)
	switch kind {
	case "ident":
		q.TumblingWindow(300 * time.Second).Seed(11)
	case "kill":
		store, err := storage.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		q.TumblingWindow(100*time.Second).
			Seed(31).
			SpillStore(store).
			CheckpointEvery(1200, 0)
	default:
		t.Fatalf("unknown dist proc query kind %q", kind)
	}
	return q
}

// TestDistShardHelper is the shard-node process body. It skips unless
// re-exec'd by a parent test with the helper environment set.
func TestDistShardHelper(t *testing.T) {
	if os.Getenv("SPEAR_DIST_HELPER") == "" {
		t.Skip("re-exec entry point for the multi-process distributed tests")
	}
	q := buildDistProcQuery(t, os.Getenv("SPEAR_DIST_KIND"), os.Getenv("SPEAR_DIST_DIR"))
	if pw := os.Getenv("SPEAR_DIST_PEERWAIT"); pw != "" {
		d, err := time.ParseDuration(pw)
		if err != nil {
			t.Fatal(err)
		}
		q.p.peerWait = d
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The parent scans stdout for this line to learn the port.
	fmt.Printf("SPEARADDR %s\n", lis.Addr())
	if err := q.ServeShard(lis); err != nil {
		t.Fatal(err)
	}
}

// procLog captures a shard process's output. It must be
// concurrency-safe: the exec package's stderr copier goroutine and the
// test's stdout scanner goroutine both write into it, and the test
// reads it when reporting failures.
type procLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
	tee io.Writer // optional live mirror (SPEAR_DIST_DEBUG)
}

func (l *procLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tee != nil {
		_, _ = l.tee.Write(p)
	}
	return l.buf.Write(p)
}

func (l *procLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// shardProc is one re-exec'd shard node.
type shardProc struct {
	cmd  *exec.Cmd
	addr string
	out  *procLog
	done chan error
}

func spawnShard(t *testing.T, kind, dir, peerWait string) *shardProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDistShardHelper$", "-test.count=1", "-test.v", "-test.timeout=60s")
	cmd.Env = append(os.Environ(),
		"SPEAR_DIST_HELPER=1",
		"SPEAR_DIST_KIND="+kind,
		"SPEAR_DIST_DIR="+dir,
		"SPEAR_DIST_PEERWAIT="+peerWait,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	out := &procLog{}
	if os.Getenv("SPEAR_DIST_DEBUG") != "" {
		out.tee = os.Stderr
	}
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &shardProc{cmd: cmd, out: out, done: make(chan error, 1)}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-p.done
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "SPEARADDR "); ok {
				addrCh <- a
				break
			}
			fmt.Fprintln(out, line)
		}
		_, _ = io.Copy(out, stdout) // keep the pipe drained for Wait
		p.done <- cmd.Wait()
	}()
	select {
	case p.addr = <-addrCh:
	case <-time.After(20 * time.Second):
		t.Fatalf("shard helper did not report an address; output:\n%s", out.String())
	}
	return p
}

// wait collects the shard process's exit; helper test failures surface
// unless tolerate is set (expected for killed or abandoned nodes).
func (p *shardProc) wait(t *testing.T, tolerate bool) {
	t.Helper()
	select {
	case err := <-p.done:
		p.done <- err // keep readable for the Cleanup
		if err != nil && !tolerate {
			t.Errorf("shard process: %v\noutput:\n%s", err, p.out.String())
		}
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		t.Fatalf("shard process did not exit; output:\n%s", p.out.String())
	}
}

// TestDistributedTwoProcessIdentity runs a 3-process topology — this
// test as the source, two re-exec'd shard nodes — over loopback and
// requires output bit-identical to the single-process run: values and
// accelerate/exact decisions.
func TestDistributedTwoProcessIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	in := distTuples(20, 300, 8)

	ref := &workerSink{}
	if _, err := buildDistProcQuery(t, "ident", "").Source(FromSlice(in)).Run(ref.add); err != nil {
		t.Fatal(err)
	}
	want := ref.sorted()
	if m := modes(want); m["sampled"] == 0 || m["exact"] == 0 {
		t.Fatalf("reference does not exercise both modes: %v", m)
	}

	n0 := spawnShard(t, "ident", "", "")
	n1 := spawnShard(t, "ident", "", "")
	got := &workerSink{}
	if _, err := buildDistProcQuery(t, "ident", "").
		Source(FromSlice(in)).
		Distribute(n0.addr, n1.addr).
		Run(got.add); err != nil {
		t.Fatal(err)
	}
	n0.wait(t, false)
	n1.wait(t, false)
	requireIdentical(t, want, got.sorted())
}

// slowSpout replays a slice with a per-tuple delay, so a parent test
// has time to observe checkpoints and kill a node mid-stream. SeekTo
// makes it recoverable, matching SliceSpout's offset contract.
type slowSpout struct {
	ts    []Tuple
	i     int
	delay time.Duration
}

func (s *slowSpout) Next() (Tuple, bool) {
	if s.i >= len(s.ts) {
		return Tuple{}, false
	}
	tp := s.ts[s.i]
	s.i++
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return tp, true
}

func (s *slowSpout) SeekTo(off int64) error {
	if off < 0 || off > int64(len(s.ts)) {
		return fmt.Errorf("slowSpout: seek %d out of range", off)
	}
	s.i = int(off)
	return nil
}

// waitManifest polls the shared FileStore directory until a committed
// checkpoint manifest appears (manifest keys live under the "<ns>/m/"
// prefix, percent-encoded by the store's key-to-filename mapping).
func waitManifest(t *testing.T, dir string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ents, err := os.ReadDir(dir)
		if err == nil {
			for _, e := range ents {
				if strings.Contains(e.Name(), "%2Fm%2F") && filepath.Ext(e.Name()) == ".cseg" {
					return
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no checkpoint manifest appeared in the shared store")
}

// TestDistributedKillNodeRecovery is the crash-recovery acceptance
// test: a 3-process checkpointing topology loses one shard node to a
// process kill mid-stream, the run fails over exhausted redials, and a
// second leg — fresh shard processes, source with Recover() — resumes
// from the committed checkpoint. The union of both legs must equal an
// uninterrupted single-process reference exactly, overlaps agreeing on
// values and modes.
func TestDistributedKillNodeRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	in := distTuples(30, 100, 4)
	dir := t.TempDir()

	ref := &workerSink{}
	if _, err := buildDistProcQuery(t, "kill", t.TempDir()).Source(FromSlice(in)).Run(ref.add); err != nil {
		t.Fatal(err)
	}
	want := ref.sorted()

	// Leg 1: throttled stream; kill node 0 once a checkpoint commits.
	n0 := spawnShard(t, "kill", dir, "2s")
	n1 := spawnShard(t, "kill", dir, "2s")
	tel1 := NewInstruments()
	leg1 := &workerSink{}
	q1 := buildDistProcQuery(t, "kill", dir).
		Source(&slowSpout{ts: in, delay: 150 * time.Microsecond}).
		ObserveWith(tel1).
		Distribute(n0.addr, n1.addr)
	q1.p.redials = 2
	q1.p.backoff = 10 * time.Millisecond
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		waitManifest(t, dir, 15*time.Second)
		// Give in-flight pre-checkpoint results a beat to land, then
		// take the node down hard.
		time.Sleep(50 * time.Millisecond)
		_ = n0.cmd.Process.Kill()
	}()
	_, err := q1.Run(leg1.add)
	<-killed
	if err == nil {
		t.Fatal("leg 1 completed despite the node kill")
	}
	t.Logf("leg 1 failed as expected: %v", err)
	t.Logf("leg 1 delivered %d windows before the crash", len(leg1.sorted()))
	if tel1.Checkpoint().Completed.Load() < 1 {
		t.Fatalf("leg 1 committed %d checkpoints", tel1.Checkpoint().Completed.Load())
	}
	n0.wait(t, true) // killed
	n1.wait(t, true) // abandoned; exits via its peer-wait watchdog

	// Leg 2: fresh processes, recovered source, full stream replay.
	m0 := spawnShard(t, "kill", dir, "")
	m1 := spawnShard(t, "kill", dir, "")
	leg2 := &workerSink{}
	if _, err := buildDistProcQuery(t, "kill", dir).
		Source(FromSlice(in)).
		Recover().
		Distribute(m0.addr, m1.addr).
		Run(leg2.add); err != nil {
		t.Fatal(err)
	}
	m0.wait(t, false)
	m1.wait(t, false)
	// Operator restore runs inside the shard processes (the source has
	// no local workers to time), so recovery is asserted behaviorally:
	// leg 2 must skip the checkpointed prefix.
	if len(leg2.sorted()) >= len(want) {
		t.Fatalf("leg 2 emitted %d windows of %d; recovery did not skip the prefix",
			len(leg2.sorted()), len(want))
	}

	// Union of the legs == reference; overlapping windows must agree
	// bit-for-bit (values, N, sample size, mode).
	type key struct {
		start  int64
		worker int
	}
	merged := map[key]Result{}
	for _, r := range leg1.sorted() {
		merged[key{r.Res.Start, r.Worker}] = r.Res
	}
	for _, r := range leg2.sorted() {
		k := key{r.Res.Start, r.Worker}
		if prev, dup := merged[k]; dup && !reflect.DeepEqual(prev, r.Res) {
			t.Errorf("window @%d[%d] diverged across legs:\n leg1 %+v\n leg2 %+v",
				k.start, k.worker, prev, r.Res)
		}
		merged[k] = r.Res
	}
	if len(merged) != len(want) {
		t.Errorf("merged %d windows, want %d", len(merged), len(want))
	}
	for _, w := range want {
		g, ok := merged[key{w.Res.Start, w.Worker}]
		if !ok {
			t.Errorf("window @%d[%d] missing from merged output", w.Res.Start, w.Worker)
			continue
		}
		if !reflect.DeepEqual(g, w.Res) {
			t.Errorf("window @%d[%d]:\n got %+v\nwant %+v", w.Res.Start, w.Worker, g, w.Res)
		}
	}
}

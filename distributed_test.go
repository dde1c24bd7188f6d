package spear

import (
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/leakcheck"
	"spear/internal/transport"
)

// distTuples builds a deterministic stream over `windows` tumbling
// windows of winSec seconds each: dense windows carry enough tuples
// for the accuracy check to accept a sample, while every third window
// is so sparse the check refuses and the exact path runs — so a run
// over this stream exercises both production modes. Each tuple carries
// a skewed float value and a group key cycling over g groups (unused
// by scalar queries).
func distTuples(windows, winSec, g int) []Tuple {
	var ts []Tuple
	i := 0
	for w := 0; w < windows; w++ {
		n := 600
		if w%3 == 1 {
			n = 5
		}
		for k := 0; k < n; k++ {
			sec := int64(w*winSec) + int64(k*winSec)/int64(n)
			v := float64((i*7919)%1000) / 3
			ts = append(ts, NewTuple(sec*int64(time.Second), Float(v), Int(int64(i%g))))
			i++
		}
	}
	return ts
}

// workerResult pairs a result with the (global) worker that produced
// it, for bit-identity comparison across runtimes.
type workerResult struct {
	Worker int
	Res    Result
}

type workerSink struct {
	mu  sync.Mutex
	res []workerResult
}

func (s *workerSink) add(worker int, r Result) {
	s.mu.Lock()
	s.res = append(s.res, workerResult{Worker: worker, Res: r})
	s.mu.Unlock()
}

func (s *workerSink) sorted() []workerResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]workerResult(nil), s.res...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Res.Start != out[j].Res.Start {
			return out[i].Res.Start < out[j].Res.Start
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}

// mergeLegs merges the legs of a stop-and-recover run per (worker,
// window), later legs winning, ordered by worker and window: which
// checkpoint the second leg resumes from depends on how far the source
// ran ahead of the workers, so the legs overlap by a varying amount.
func mergeLegs(legs ...[]workerResult) []workerResult {
	type key struct {
		worker int
		start  int64
	}
	merged := map[key]workerResult{}
	for _, leg := range legs {
		for _, r := range leg {
			merged[key{r.Worker, r.Res.Start}] = r
		}
	}
	out := make([]workerResult, 0, len(merged))
	for _, r := range merged {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Worker != out[j].Worker {
			return out[i].Worker < out[j].Worker
		}
		return out[i].Res.Start < out[j].Res.Start
	})
	return out
}

// shardCluster runs n ServeShard goroutines on loopback listeners.
type shardCluster struct {
	addrs []string
	lis   []net.Listener
	done  []chan error
}

func startShards(t *testing.T, n int, build func() *Query) *shardCluster {
	t.Helper()
	c := &shardCluster{}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		q := build()
		go func() { done <- q.ServeShard(lis) }()
		c.addrs = append(c.addrs, lis.Addr().String())
		c.lis = append(c.lis, lis)
		c.done = append(c.done, done)
	}
	return c
}

// wait collects every shard's exit, failing the test on errors unless
// tolerate is set.
func (c *shardCluster) wait(t *testing.T, tolerate bool) {
	t.Helper()
	for i, done := range c.done {
		select {
		case err := <-done:
			if err != nil && !tolerate {
				t.Errorf("shard %d: %v", i, err)
			}
		case <-time.After(20 * time.Second):
			_ = c.lis[i].Close()
			t.Fatalf("shard %d did not exit", i)
		}
	}
}

func (c *shardCluster) kill() {
	for _, l := range c.lis {
		_ = l.Close()
	}
}

// requireIdentical asserts two runs produced bit-identical streams:
// same windows, same workers, same values, same production modes.
func requireIdentical(t *testing.T, ref, got []workerResult) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("result count: got %d, want %d", len(got), len(ref))
	}
	for i := range ref {
		if ref[i].Worker != got[i].Worker || !reflect.DeepEqual(ref[i].Res, got[i].Res) {
			t.Fatalf("result %d diverged:\n got %d %+v\nwant %d %+v",
				i, got[i].Worker, got[i].Res, ref[i].Worker, ref[i].Res)
		}
	}
}

func modes(rs []workerResult) map[string]int {
	m := map[string]int{}
	for _, r := range rs {
		m[r.Res.Mode.String()]++
	}
	return m
}

// TestDistributedLoopbackIdentity runs the same scalar holistic query
// single-process and across two TCP shard nodes and requires
// bit-identical output — values AND accelerate/exact decisions.
func TestDistributedLoopbackIdentity(t *testing.T) {
	leakcheck.Check(t, leakcheck.Timeout(10*time.Second))
	in := distTuples(20, 300, 8)
	build := func() *Query {
		return NewQuery("distq").
			TumblingWindow(300*time.Second).
			Percentile(func(tp Tuple) float64 { return tp.Vals[0].AsFloat() }, 0.9).
			BudgetTuples(96).
			Error(0.10, 0.95).
			Seed(11).
			Parallelism(4)
	}

	ref := &workerSink{}
	if _, err := build().Source(FromSlice(in)).Run(ref.add); err != nil {
		t.Fatal(err)
	}
	want := ref.sorted()
	if m := modes(want); m["sampled"] == 0 || m["exact"] == 0 {
		t.Fatalf("reference does not exercise both modes: %v", m)
	}

	var shardIns []*Instruments
	shards := startShards(t, 2, func() *Query {
		ins := NewInstruments()
		shardIns = append(shardIns, ins)
		return build().ObserveWith(ins)
	})
	got := &workerSink{}
	sum, err := build().Source(FromSlice(in)).Distribute(shards.addrs...).Run(got.add)
	if err != nil {
		t.Fatal(err)
	}
	shards.wait(t, false)
	requireIdentical(t, want, got.sorted())

	// The window workers live in the shard processes, and so does their
	// telemetry: the source's Summary is empty, and what the shards'
	// instruments counted adds up to the results delivered.
	if sum != (Summary{}) {
		t.Errorf("source Summary under Distribute = %+v, want empty", sum)
	}
	var windows int64
	for _, ins := range shardIns {
		windows += ins.Summarize().Windows
	}
	if windows != int64(len(want)) {
		t.Errorf("shards' summaries count %d windows, %d results delivered", windows, len(want))
	}

	coalescedLegs(t, in, want, build)
}

// coalescedLegs runs build's query at BatchSize 1 and 7, checkpointing
// every 900 source tuples, in-process and across two TCP shard nodes,
// and requires both to equal want. At those sizes an outbox holds many
// runs whenever its pump comes to it, so the shards ingest the
// coalesced runs of whole batch frames, cut wherever a watermark or a
// mid-stream barrier falls.
func coalescedLegs(t *testing.T, in []Tuple, want []workerResult, build func() *Query) {
	t.Helper()
	for _, batch := range []int{1, 7} {
		leg := func() *Query { return build().BatchSize(batch).CheckpointEvery(900, 0) }
		local := &workerSink{}
		if _, err := leg().Source(FromSlice(in)).Run(local.add); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, want, local.sorted())
		var shardIns []*Instruments
		shards := startShards(t, 2, func() *Query {
			ins := NewInstruments()
			shardIns = append(shardIns, ins)
			return leg().ObserveWith(ins)
		})
		got := &workerSink{}
		tel := NewInstruments()
		if _, err := leg().Source(FromSlice(in)).ObserveWith(tel).Distribute(shards.addrs...).Run(got.add); err != nil {
			t.Fatal(err)
		}
		shards.wait(t, false)
		requireIdentical(t, want, got.sorted())
		if tel.Checkpoint().Completed.Load() < 1 {
			t.Fatalf("BatchSize %d: the distributed run committed no checkpoint", batch)
		}
		// The shards' occupancy histograms show runs longer than any
		// the source's batcher ships: frames that carried several.
		longer := int64(0)
		for _, ins := range shardIns {
			occ := ins.Snapshot(time.Now()).Occupancy
			for _, b := range occ.Buckets {
				if b.Le >= batch {
					longer += occ.Count - b.Cumulative
					break
				}
			}
		}
		if longer == 0 {
			t.Errorf("BatchSize %d: no shard ingested a run longer than %d", batch, batch)
		}
	}
}

// TestDistributedLoopbackIdentityGrouped does the same for a grouped
// aggregate, where seeded-fields routing decides which worker owns
// each group — the distributed run must route identically or
// per-worker samples diverge.
func TestDistributedLoopbackIdentityGrouped(t *testing.T) {
	leakcheck.Check(t, leakcheck.Timeout(10*time.Second))
	in := distTuples(15, 400, 12)
	build := func() *Query {
		return NewQuery("distg").
			TumblingWindow(400*time.Second).
			GroupBy(func(tp Tuple) string { return tp.Vals[1].String() }).
			Mean(func(tp Tuple) float64 { return tp.Vals[0].AsFloat() }).
			BudgetTuples(128).
			Error(0.10, 0.95).
			Seed(23).
			Parallelism(3)
	}

	ref := &workerSink{}
	if _, err := build().Source(FromSlice(in)).Run(ref.add); err != nil {
		t.Fatal(err)
	}
	want := ref.sorted()
	if len(want) == 0 {
		t.Fatal("reference produced nothing")
	}

	shards := startShards(t, 3, build)
	got := &workerSink{}
	if _, err := build().Source(FromSlice(in)).Distribute(shards.addrs...).Run(got.add); err != nil {
		t.Fatal(err)
	}
	shards.wait(t, false)
	requireIdentical(t, want, got.sorted())
}

// TestDistributedBarriersOverWire runs a checkpointing distributed
// query whose cadence fires mid-stream, behind a stateless stage:
// barriers and watermarks must cut the stream over the wire exactly
// where they cut it in-process. The stage runs at the source, so every
// worker has one sender in both runtimes and sees its tuples in source
// order: the sums are of plain, non-integral floats and must agree bit
// for bit, which an unordered fan-in would not.
func TestDistributedBarriersOverWire(t *testing.T) {
	leakcheck.Check(t, leakcheck.Timeout(10*time.Second))
	in := distTuples(20, 250, 6)
	build := func() *Query {
		return NewQuery("distb").
			Map(func(tp Tuple) (Tuple, bool) { return tp, true }).
			TumblingWindow(250*time.Second).
			Sum(func(tp Tuple) float64 { return tp.Vals[0].AsFloat() }).
			WithBackend(BackendExact).
			Seed(5).
			Parallelism(4).
			CheckpointEvery(900, 0)
	}

	ref := &workerSink{}
	telRef := NewInstruments()
	if _, err := build().Source(FromSlice(in)).ObserveWith(telRef).Run(ref.add); err != nil {
		t.Fatal(err)
	}
	want := ref.sorted()

	var shardIns []*Instruments
	shards := startShards(t, 2, func() *Query {
		ins := NewInstruments()
		shardIns = append(shardIns, ins)
		return build().ObserveWith(ins)
	})
	got := &workerSink{}
	tel := NewInstruments()
	if _, err := build().Source(FromSlice(in)).
		ObserveWith(tel).
		Distribute(shards.addrs...).
		Run(got.add); err != nil {
		t.Fatal(err)
	}
	shards.wait(t, false)
	requireIdentical(t, want, got.sorted())
	// Round counts are timing-dependent (the coordinator skips a cadence
	// point while a round is still in flight), so only completion is
	// asserted — the reference's count need not match.
	if tel.Checkpoint().Completed.Load() < 1 {
		t.Fatal("distributed run committed no checkpoints")
	}
	if telRef.Checkpoint().Completed.Load() < 1 {
		t.Fatal("reference run committed no checkpoints")
	}
	// A shard's workers run the local worker protocol, telemetry
	// included: each shard books the blobs it persisted.
	for i, ins := range shardIns {
		if cm := ins.Checkpoint(); cm.SnapshotBytes.Load() == 0 || cm.SnapshotTime.Count() == 0 {
			t.Errorf("shard %d booked %d snapshot bytes over %d snapshots", i, cm.SnapshotBytes.Load(), cm.SnapshotTime.Count())
		}
	}
	// Only the fabric that owns a channel registers it: the source's
	// edges are the network outboxes, one per worker.
	var edges []string
	for _, e := range tel.Snapshot(time.Now()).Edges {
		edges = append(edges, e.Name)
	}
	if want := "[shuffle[0] shuffle[1] shuffle[2] shuffle[3]]"; fmt.Sprint(edges) != want {
		t.Errorf("source edges %v, want %s", edges, want)
	}

	coalescedLegs(t, in, want, build)
}

// TestDistributedLoopbackIdentityIncremental runs the Inc-Storm backend
// across two TCP shard nodes. It keeps no row past the ingest call, so a
// shard recycles a frame's value slab as soon as its run is folded
// (core.KeepsRows), where the exact backend of
// TestDistributedBarriersOverWire keeps its slabs in the buffer. As
// there, the stage runs at the source and the means are of plain,
// non-integral floats: they must agree, per worker, bit for bit with the
// single-process run.
func TestDistributedLoopbackIdentityIncremental(t *testing.T) {
	leakcheck.Check(t, leakcheck.Timeout(10*time.Second))
	in := distTuples(20, 250, 6)
	build := func() *Query {
		return NewQuery("disti").
			Map(func(tp Tuple) (Tuple, bool) { return tp, true }).
			TumblingWindow(250 * time.Second).
			Mean(func(tp Tuple) float64 { return tp.Vals[0].AsFloat() }).
			WithBackend(BackendIncremental).
			Seed(5).
			Parallelism(4)
	}

	ref := &workerSink{}
	if _, err := build().Source(FromSlice(in)).Run(ref.add); err != nil {
		t.Fatal(err)
	}
	want := ref.sorted()
	if m := modes(want); len(want) == 0 || m["incremental"] != len(want) {
		t.Fatalf("reference answered %v, want incremental windows only", m)
	}
	shards := startShards(t, 2, build)
	got := &workerSink{}
	if _, err := build().Source(FromSlice(in)).Distribute(shards.addrs...).Run(got.add); err != nil {
		t.Fatal(err)
	}
	shards.wait(t, false)
	requireIdentical(t, want, got.sorted())
}

// TestDistributedReconnect cuts the connection mid-stream: the fabric
// must redial with backoff, replay the unacknowledged suffix, and the
// run must still be bit-identical — the wire-level exactly-once
// property.
func TestDistributedReconnect(t *testing.T) {
	leakcheck.Check(t, leakcheck.Timeout(10*time.Second))
	in := distTuples(20, 300, 8)
	build := func() *Query {
		return NewQuery("distr").
			TumblingWindow(300*time.Second).
			Percentile(func(tp Tuple) float64 { return tp.Vals[0].AsFloat() }, 0.9).
			BudgetTuples(96).
			Error(0.10, 0.95).
			Seed(11).
			Parallelism(2).
			CheckpointEvery(700, 0)
	}

	ref := &workerSink{}
	if _, err := build().Source(FromSlice(in)).Run(ref.add); err != nil {
		t.Fatal(err)
	}

	shards := startShards(t, 1, build)
	fd := &transport.FaultDialer{CutAfterWrites: 40, CutOnce: true}
	ins := NewInstruments()
	got := &workerSink{}
	q := build().Source(FromSlice(in)).Distribute(shards.addrs...).ObserveWith(ins)
	q.p.dialer = fd
	q.p.backoff = 5 * time.Millisecond
	if _, err := q.Run(got.add); err != nil {
		t.Fatal(err)
	}
	shards.wait(t, false)
	requireIdentical(t, ref.sorted(), got.sorted())
	if fd.Dials() < 2 {
		t.Fatalf("dialer saw %d dials; the cut did not force a reconnect", fd.Dials())
	}
	snap := ins.Snapshot(time.Now())
	var reconnects int64
	for _, tr := range snap.Transport {
		reconnects += tr.Reconnects
	}
	if reconnects < 1 {
		t.Fatalf("transport counters recorded %d reconnects, want >= 1", reconnects)
	}
}

// TestDistributedDialFaults exercises the remaining dial-time faults:
// refused first dials (capped backoff retries them) and duplicated
// connections that die before the handshake (the listener must shrug
// them off).
func TestDistributedDialFaults(t *testing.T) {
	leakcheck.Check(t, leakcheck.Timeout(10*time.Second))
	in := distTuples(10, 200, 4)
	build := func() *Query {
		return NewQuery("distf").
			TumblingWindow(200 * time.Second).
			Mean(func(tp Tuple) float64 { return tp.Vals[0].AsFloat() }).
			BudgetTuples(64).
			Seed(3).
			Parallelism(2)
	}

	ref := &workerSink{}
	if _, err := build().Source(FromSlice(in)).Run(ref.add); err != nil {
		t.Fatal(err)
	}

	shards := startShards(t, 2, build)
	fd := &transport.FaultDialer{FailFirst: 2, DoubleDial: true, Delay: time.Millisecond}
	got := &workerSink{}
	q := build().Source(FromSlice(in)).Distribute(shards.addrs...)
	q.p.dialer = fd
	q.p.backoff = 5 * time.Millisecond
	if _, err := q.Run(got.add); err != nil {
		t.Fatal(err)
	}
	shards.wait(t, false)
	requireIdentical(t, ref.sorted(), got.sorted())
}

// TestDistributedShardTakesTheSourcesShape pairs a source with shards
// built with another parallelism and batch size, and without its Map
// stage. None of those is a worker setting: the JobSpec carries the
// source's parallelism and batch size, and Map stages run at the source.
// So the handshake accepts the pairing, and its results are bit-identical
// to the pairing of shards built like the source.
func TestDistributedShardTakesTheSourcesShape(t *testing.T) {
	leakcheck.Check(t, leakcheck.Timeout(10*time.Second))
	in := distTuples(12, 300, 8)
	build := func() *Query {
		return NewQuery("distpar").
			TumblingWindow(300 * time.Second).
			Median(func(tp Tuple) float64 { return tp.Vals[0].AsFloat() }).
			BudgetTuples(96).
			Seed(4)
	}
	source := func() *Query {
		return build().Map(func(tp Tuple) (Tuple, bool) { return tp, true }).Parallelism(2).BatchSize(16)
	}
	run := func(shard func() *Query) []workerResult {
		shards := startShards(t, 2, shard)
		got := &workerSink{}
		if _, err := source().Source(FromSlice(in)).Distribute(shards.addrs...).Run(got.add); err != nil {
			t.Fatal(err)
		}
		shards.wait(t, false)
		return got.sorted()
	}
	want := run(source)
	if m := modes(want); m["sampled"] == 0 || m["exact"] == 0 {
		t.Fatalf("reference does not exercise both modes: %v", m)
	}
	requireIdentical(t, want, run(func() *Query { return build().Parallelism(1).BatchSize(1) }))
}

// TestDistributedTopologyMismatch pairs a source with a shard built
// from a diverged query; the handshake must refuse and the run must
// fail loudly instead of computing silently different answers. Each
// case diverges in one setting that changes results: the seed, or an
// AdaptiveBudget, which moves every window's budget and with it Modes.
func TestDistributedTopologyMismatch(t *testing.T) {
	leakcheck.Check(t, leakcheck.Timeout(10*time.Second))
	in := distTuples(5, 100, 4)
	base := func() *Query {
		return NewQuery("distm").
			TumblingWindow(100 * time.Second).
			Count().
			Seed(1).
			Parallelism(2)
	}
	for _, tc := range []struct {
		name          string
		shard, source func() *Query
	}{
		{"seed", func() *Query { return base().Seed(99) }, base},
		{"adaptive budget", base, func() *Query { return base().AdaptiveBudget(10, 1000) }},
	} {
		shards := startShards(t, 1, tc.shard)
		q := tc.source().Source(FromSlice(in)).Distribute(shards.addrs...)
		q.p.backoff = time.Millisecond
		q.p.redials = 1
		_, err := q.Run(func(int, Result) {})
		if err == nil || !strings.Contains(err.Error(), "topology hash mismatch") {
			t.Errorf("%s: err = %v, want topology hash mismatch", tc.name, err)
		}
		shards.kill()
		shards.wait(t, true)
	}
}

package spill

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"spear/internal/storage"
	"spear/internal/tuple"
)

// mkChunk builds n tuples with timestamps base, base+1, … and a couple
// of mixed-kind values each.
func mkChunk(base int64, n int) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.New(base+int64(i),
			tuple.Float(float64(i)*1.5),
			tuple.String_(fmt.Sprintf("v%d", i)))
	}
	return ts
}

func sameTuples(t *testing.T, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("tuple count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Ts != want[i].Ts {
			t.Fatalf("tuple %d: Ts = %d, want %d", i, got[i].Ts, want[i].Ts)
		}
		if len(got[i].Vals) != len(want[i].Vals) {
			t.Fatalf("tuple %d: %d vals, want %d", i, len(got[i].Vals), len(want[i].Vals))
		}
		for j := range want[i].Vals {
			if !got[i].Vals[j].Equal(want[i].Vals[j]) {
				t.Fatalf("tuple %d val %d: %v != %v", i, j, got[i].Vals[j], want[i].Vals[j])
			}
		}
	}
}

// slowStore injects a fixed delay into Store and Get.
type slowStore struct {
	storage.SpillStore
	delay time.Duration
}

func (s *slowStore) Store(key string, ts []tuple.Tuple) error {
	time.Sleep(s.delay)
	return s.SpillStore.Store(key, ts)
}

func (s *slowStore) Get(key string) ([]tuple.Tuple, error) {
	time.Sleep(s.delay)
	return s.SpillStore.Get(key)
}

// failStore fails every Store after the first failAfter successes.
type failStore struct {
	storage.SpillStore
	mu        sync.Mutex
	failAfter int
	stores    int
	err       error
}

func (f *failStore) Store(key string, ts []tuple.Tuple) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stores++
	if f.stores > f.failAfter {
		return f.err
	}
	return f.SpillStore.Store(key, ts)
}

// countStore counts inner Get calls (for cache-hit assertions).
type countStore struct {
	storage.SpillStore
	mu   sync.Mutex
	gets int
}

func (c *countStore) Get(key string) ([]tuple.Tuple, error) {
	c.mu.Lock()
	c.gets++
	c.mu.Unlock()
	return c.SpillStore.Get(key)
}

func (c *countStore) Gets() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets
}

func newAsync(t *testing.T, inner storage.SpillStore, opts Options) *Plane {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 3
	}
	p := NewPlane(inner, opts)
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return p
}

func TestPlaneSyncPassthrough(t *testing.T) {
	mem := storage.NewMemStore()
	p := NewPlane(mem, Options{Workers: 0})
	if p.PlaneStats().Async {
		t.Fatal("Workers:0 plane reports Async")
	}
	want := mkChunk(100, 8)
	if err := p.Store("k", want); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, got, want)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAsPlaneIdempotent(t *testing.T) {
	mem := storage.NewMemStore()
	p := NewPlane(mem, Options{Workers: 2})
	defer p.Close()
	if AsPlane(p) != p {
		t.Fatal("AsPlane re-wrapped an existing plane")
	}
	q := AsPlane(mem)
	if q.PlaneStats().Async {
		t.Fatal("AsPlane over a raw store must be synchronous")
	}
	if q.inner != storage.SpillStore(mem) {
		t.Fatal("AsPlane lost the inner store")
	}
}

// TestPlaneIdentity drives the async plane and a synchronous reference
// with the same operation sequence and demands identical reads.
func TestPlaneIdentity(t *testing.T) {
	ref := storage.NewMemStore()
	mem := storage.NewMemStore()
	p := newAsync(t, mem, Options{Workers: 4})

	keys := []string{"a#0", "a#1", "b#0"}
	for round := 0; round < 20; round++ {
		for ki, k := range keys {
			chunk := mkChunk(int64(round*100+ki), 5+round%3)
			if err := ref.Store(k, chunk); err != nil {
				t.Fatal(err)
			}
			if err := p.Store(k, chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, k := range keys {
		want, err := ref.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Get(k) // read-your-writes: no Flush first
		if err != nil {
			t.Fatal(err)
		}
		sameTuples(t, got, want)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// After the barrier the inner store itself must match the reference.
	for _, k := range keys {
		want, err := ref.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mem.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		sameTuples(t, got, want)
	}
}

// TestPlaneMustNotRetain mutates the caller's chunk right after Store
// returns (as the Storm buffer's eviction zeroes evicted rows) and checks the
// plane stored the original bytes.
func TestPlaneMustNotRetain(t *testing.T) {
	mem := &slowStore{SpillStore: storage.NewMemStore(), delay: 2 * time.Millisecond}
	p := newAsync(t, mem, Options{})
	chunk := mkChunk(0, 16)
	want := copyTuples(chunk)
	if err := p.Store("k", chunk); err != nil {
		t.Fatal(err)
	}
	for i := range chunk { // recycle the buffer while the write is in flight
		chunk[i] = tuple.Tuple{}
	}
	got, err := p.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, got, want)
}

// TestPlaneCopyOnGet mutates a fetched slice and checks the cached
// segment is unharmed.
func TestPlaneCopyOnGet(t *testing.T) {
	p := newAsync(t, storage.NewMemStore(), Options{})
	want := mkChunk(0, 8)
	if err := p.Store("k", mkChunk(0, 8)); err != nil {
		t.Fatal(err)
	}
	got1, err := p.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got1 {
		got1[i].Ts = -1
		got1[i].Vals = nil
	}
	got2, err := p.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, got2, want)
}

func TestPlaneNotFoundNotLatched(t *testing.T) {
	p := newAsync(t, storage.NewMemStore(), Options{})
	if _, err := p.Get("missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	// The miss must not poison the plane.
	if err := p.Store("k", mkChunk(0, 2)); err != nil {
		t.Fatalf("Store after miss: %v", err)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush after miss: %v", err)
	}
}

func TestPlaneErrorLatches(t *testing.T) {
	boom := errors.New("disk on fire")
	fs := &failStore{SpillStore: storage.NewMemStore(), failAfter: 1, err: boom}
	p := NewPlane(fs, Options{Workers: 2})
	if err := p.Store("k", mkChunk(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p.Store("k", mkChunk(10, 2)); err != nil && !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if err := p.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want latched %v", err, boom)
	}
	// Everything after the latch reports the same failure.
	if err := p.Store("k", mkChunk(20, 2)); !errors.Is(err, boom) {
		t.Fatalf("Store after latch = %v, want %v", err, boom)
	}
	if _, err := p.Get("k"); !errors.Is(err, boom) {
		t.Fatalf("Get after latch = %v, want %v", err, boom)
	}
	if err := p.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want %v", err, boom)
	}
}

func TestPlaneBackpressure(t *testing.T) {
	mem := &slowStore{SpillStore: storage.NewMemStore(), delay: time.Millisecond}
	p := newAsync(t, mem, Options{Workers: 1, QueueBytes: 256})
	var want []tuple.Tuple
	for i := 0; i < 32; i++ {
		chunk := mkChunk(int64(i*10), 4)
		want = append(want, copyTuples(chunk)...)
		if err := p.Store("k", chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	st := p.PlaneStats()
	if st.BackpressureWaits == 0 {
		t.Error("expected back-pressure waits with a 256-byte budget")
	}
	if st.AsyncWrites != 32 {
		t.Errorf("AsyncWrites = %d, want 32", st.AsyncWrites)
	}
	if st.QueueDepth != 0 || st.InflightBytes != 0 {
		t.Errorf("post-flush queue depth=%d bytes=%d, want 0/0", st.QueueDepth, st.InflightBytes)
	}
	got, err := p.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, got, want)
}

// TestPlaneCacheCoherentWithQueuedWrites reads a key into the cache and
// then stores more chunks: the cached segment must grow with the writes
// so a later Get sees everything without asking the store again.
func TestPlaneCacheCoherentWithQueuedWrites(t *testing.T) {
	cs := &countStore{SpillStore: storage.NewMemStore()}
	p := newAsync(t, cs, Options{Workers: 2})
	if err := p.Store("k", mkChunk(0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get("k"); err != nil {
		t.Fatal(err)
	}
	if err := p.Store("k", mkChunk(100, 4)); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	want := append(mkChunk(0, 4), mkChunk(100, 4)...)
	sameTuples(t, got, want)
	if g := cs.Gets(); g != 1 {
		t.Errorf("inner Gets = %d, want 1 (append kept the cache coherent)", g)
	}
}

func TestPlaneDeleteDropsCacheAndQueue(t *testing.T) {
	p := newAsync(t, storage.NewMemStore(), Options{})
	if err := p.Store("k", mkChunk(0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get("k"); err != nil { // warm the cache
		t.Fatal(err)
	}
	if err := p.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get("k"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
}

func TestPlaneTruncate(t *testing.T) {
	mem := storage.NewMemStore()
	p := newAsync(t, mem, Options{})
	if err := p.Store("k", mkChunk(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := p.Store("k", mkChunk(10, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get("k"); err != nil { // cache both chunks
		t.Fatal(err)
	}
	if err := p.Truncate("k", 1); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, got, mkChunk(0, 3))
}

func TestPlaneList(t *testing.T) {
	p := newAsync(t, storage.NewMemStore(), Options{})
	if err := p.Store("a#1", mkChunk(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Store("a#2", mkChunk(0, 1)); err != nil {
		t.Fatal(err)
	}
	keys, err := p.List("a#")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("List = %v, want both queued segments visible", keys)
	}
}

func TestPlaneCloseDegradesToSync(t *testing.T) {
	mem := storage.NewMemStore()
	p := NewPlane(mem, Options{Workers: 2})
	if err := p.Store("k", mkChunk(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-Close stragglers (deferred deletes, late reads) pass through.
	if err := p.Store("k", mkChunk(10, 2)); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d tuples after post-close store, want 4", len(got))
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestPlaneConcurrent hammers the plane from many goroutines; run under
// -race it checks the locking discipline, and the final read checks no
// chunk was lost or reordered.
func TestPlaneConcurrent(t *testing.T) {
	mem := storage.NewMemStore()
	p := newAsync(t, mem, Options{Workers: 4, QueueBytes: 4 << 10})
	const (
		workers = 8
		rounds  = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			for r := 0; r < rounds; r++ {
				if err := p.Store(key, mkChunk(int64(r*10), 3)); err != nil {
					t.Errorf("Store: %v", err)
					return
				}
				if r%8 == 0 {
					if _, err := p.Get(key); err != nil {
						t.Errorf("Get: %v", err)
						return
					}
				}
				if r%16 == 0 {
					// A read of the neighbour's key races its writes.
					if _, err := p.Get(fmt.Sprintf("w%d", (w+1)%workers)); err != nil && !errors.Is(err, storage.ErrNotFound) {
						t.Errorf("Get: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		got, err := p.Get(fmt.Sprintf("w%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != rounds*3 {
			t.Fatalf("worker %d: %d tuples, want %d", w, len(got), rounds*3)
		}
		// Per-key order: chunk r carries timestamps r*10, r*10+1, r*10+2.
		for r := 0; r < rounds; r++ {
			for i := 0; i < 3; i++ {
				if want := int64(r*10 + i); got[r*3+i].Ts != want {
					t.Fatalf("worker %d tuple %d: Ts=%d, want %d (chunk order violated)",
						w, r*3+i, got[r*3+i].Ts, want)
				}
			}
		}
	}
}

func TestChunkCacheLRU(t *testing.T) {
	c := newChunkCache(1) // every insert overflows: keep at most the newest
	c.insert("a", mkChunk(0, 2))
	c.insert("b", mkChunk(0, 2))
	if c.m["a"] != nil {
		t.Error("LRU kept the older entry over budget")
	}
	_, _, evictions, bytes := c.stats()
	if evictions == 0 {
		t.Error("no evictions counted")
	}
	if bytes > 0 && c.m["b"] != nil {
		// "b" itself is over the 1-byte budget, so it must also go.
		t.Error("cache retains an over-budget entry")
	}
}

func TestChunkCacheAppendOnlyExtends(t *testing.T) {
	c := newChunkCache(1 << 20)
	c.append("ghost", mkChunk(0, 2)) // not cached: append must not create it
	if c.m["ghost"] != nil {
		t.Fatal("append created a cache entry")
	}
	c.insert("k", mkChunk(0, 2))
	c.append("k", mkChunk(10, 2))
	ts, ok := c.get("k")
	if !ok || len(ts) != 4 {
		t.Fatalf("cached segment has %d tuples (ok=%v), want 4", len(ts), ok)
	}
	c.invalidate("k")
	if c.m["k"] != nil {
		t.Fatal("invalidate left the entry")
	}
	if _, _, _, bytes := c.stats(); bytes != 0 {
		t.Fatalf("cache bytes = %d after invalidate, want 0", bytes)
	}
}

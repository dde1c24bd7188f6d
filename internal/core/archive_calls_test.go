package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"spear/internal/agg"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

var updateStoreCalls = flag.Bool("update-store-calls", false, "rewrite testdata/archive_store_calls.golden from the current code")

// callLog is a SpillStore that records, per key (per prefix for List),
// every call the archive makes to the store beneath it, with the tuple
// count or chunk count it carried.
type callLog struct {
	storage.SpillStore
	mu    sync.Mutex
	calls map[string][]string
}

func (l *callLog) note(key, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls[key] = append(l.calls[key], fmt.Sprintf(format, args...))
}

func (l *callLog) Store(key string, ts []tuple.Tuple) error {
	l.note(key, "Store %d", len(ts))
	return l.SpillStore.Store(key, ts)
}

func (l *callLog) Get(key string) ([]tuple.Tuple, error) {
	ts, err := l.SpillStore.Get(key)
	l.note(key, "Get %d %v", len(ts), err)
	return ts, err
}

func (l *callLog) Delete(key string) error {
	l.note(key, "Delete")
	return l.SpillStore.Delete(key)
}

func (l *callLog) Truncate(key string, chunks int) error {
	l.note(key, "Truncate %d", chunks)
	return l.SpillStore.Truncate(key, chunks)
}

func (l *callLog) List(prefix string) ([]string, error) {
	keys, err := l.SpillStore.List(prefix)
	l.note(prefix, "List %s", strings.Join(keys, ","))
	return keys, err
}

// storeCallStream scripts a stream for the archive: tuples one tick
// apart shuffled inside blocks of lag (out-of-order arrival inside the
// watermark lag), a stretch sparse enough that its panes stay under one
// chunk, and values whose spread makes some windows fail their check and
// fall back to S.
func storeCallStream(n, lag int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	var ts []tuple.Tuple
	for i, at := 0, int64(0); i < n; i++ {
		at++
		if i > n/3 && i < n/2 {
			at += 9 // ten ticks a tuple: a pane of 50 holds 5
		}
		spread := 1.0
		if i/120%2 == 1 {
			spread = 40
		}
		ts = append(ts, tuple.New(at, tuple.Float(100+rng.NormFloat64()*spread)))
	}
	for i := 0; i+lag <= len(ts); i += lag {
		rng.Shuffle(lag, func(a, b int) { ts[i+a], ts[i+b] = ts[i+b], ts[i+a] })
	}
	return ts
}

// TestArchiveStoreCallsArePinned holds the archive's traffic to S — the
// per-key sequence of Store, Get, Delete, Truncate and List calls, with
// their sizes — and the modes of the windows answered to a golden
// written before the archive's panes became one ordered list. Each leg
// drives a scalar median through out-of-order arrival inside the lag,
// panes under one chunk, exact fallbacks and evictions (deleted at once,
// or deferred and then deleted as a checkpoint coordinator does), then
// snapshots, runs on past the snapshot as a crashed run would where
// deletes are deferred, restores a fresh manager over the same store,
// rewinds it and replays the rest.
func TestArchiveStoreCallsArePinned(t *testing.T) {
	var out strings.Builder
	for _, leg := range []struct {
		name     string
		domain   window.Domain
		deferDel bool
	}{
		{"time_eager", window.TimeDomain, false},
		{"time_deferred", window.TimeDomain, true},
		{"count_deferred", window.CountDomain, true},
	} {
		log := &callLog{SpillStore: storage.NewMemStore(), calls: map[string][]string{}}
		cfg := Config{
			Spec:    window.Spec{Domain: leg.domain, Range: 200, Slide: 50},
			Agg:     agg.Median(),
			Value:   tuple.FieldFloat(0),
			Epsilon: 0.02, Confidence: 0.95, BudgetTuples: 60, ArchiveChunk: 16,
			Store: log, Key: "calls/" + leg.name, Seed: 3, DeferStoreDeletes: leg.deferDel,
		}
		const lag = 12
		stream := storeCallStream(900, lag, 5)
		modes := map[Mode]int{}
		var maxTs int64
		// drive feeds stream[from:to]; del deletes what the manager
		// deferred, as a coordinator does once a checkpoint is durable.
		drive := func(m *ScalarManager, from, to int, del bool) {
			t.Helper()
			for i := from; i < to; i += 7 {
				batch := stream[i:min(i+7, to)]
				rs, err := m.OnTupleBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				for _, tp := range batch {
					maxTs = max(maxTs, tp.Ts)
				}
				if leg.domain == window.TimeDomain {
					more, err := m.OnWatermark(maxTs - lag)
					if err != nil {
						t.Fatal(err)
					}
					rs = append(rs, more...)
				}
				for _, r := range rs {
					modes[r.Mode]++
				}
				for _, k := range m.TakeDeferredDeletes() {
					if !del {
						continue
					}
					if err := log.Delete(k); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		m, err := NewScalarManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		drive(m, 0, 500, true)
		blob, err := m.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		saved := maxTs
		if leg.deferDel {
			// The crashed run's writes past the snapshot, whose deletes
			// no durable checkpoint releases. An eager run deletes what
			// the snapshot still lists, so it restores straight away.
			drive(m, 500, 640, false)
		}
		r, err := NewScalarManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RestoreState(blob); err != nil {
			t.Fatal(err)
		}
		if err := r.RewindStore(); err != nil {
			t.Fatal(err)
		}
		maxTs = saved
		drive(r, 500, len(stream), true)
		if leg.domain == window.TimeDomain {
			rs, err := r.OnWatermark(maxTs + 1000)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range rs {
				modes[res.Mode]++
			}
		}
		if modes[ModeExact] == 0 || modes[ModeSampled] == 0 {
			t.Errorf("%s: modes %v, want windows answered both from the sample and from S", leg.name, modes)
		}
		fmt.Fprintf(&out, "== %s: %d exact, %d sampled\n", leg.name, modes[ModeExact], modes[ModeSampled])
		keys := make([]string, 0, len(log.calls))
		for k := range log.calls {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&out, "%s: %s\n", k, strings.Join(log.calls[k], "; "))
		}
	}
	path := filepath.Join("testdata", "archive_store_calls.golden")
	if *updateStoreCalls {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("store calls differ from %s at %s", path, firstDiffLine(got, string(want)))
	}
}

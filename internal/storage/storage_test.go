package storage

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spear/internal/tuple"
)

func mkTuples(n int, base int64) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.New(base+int64(i), tuple.String_("k"), tuple.Float(float64(i)))
	}
	return out
}

func testStore(t *testing.T, s SpillStore) {
	t.Helper()

	// Missing key.
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}

	// Store + Get round trip.
	in := mkTuples(10, 100)
	if err := s.Store("w1", in); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d tuples", len(got))
	}
	for i := range in {
		if got[i].Ts != in[i].Ts || !got[i].Vals[1].Equal(in[i].Vals[1]) {
			t.Fatalf("tuple %d mismatch: %v vs %v", i, got[i], in[i])
		}
	}

	// Append semantics: a second Store on the same key extends it.
	if err := s.Store("w1", mkTuples(5, 200)); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get("w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 15 {
		t.Fatalf("after append got %d tuples, want 15", len(got))
	}
	if got[10].Ts != 200 {
		t.Fatalf("appended chunk out of order: ts=%d", got[10].Ts)
	}

	// Delete, including of a missing key.
	if err := s.Delete("w1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("w1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("segment survived Delete")
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Fatalf("Delete(missing) = %v, want nil", err)
	}

	// Stats moved.
	st := s.Stats()
	if st.Stores != 2 || st.Gets < 2 || st.Deletes != 2 {
		t.Errorf("Stats = %+v", st)
	}
	if st.BytesStored <= 0 || st.TuplesStored != 15 {
		t.Errorf("byte accounting: %+v", st)
	}
}

func TestMemStore(t *testing.T) { testStore(t, NewMemStore()) }

func TestFileStore(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, fs)
}

func TestFileStoreSanitizesKeys(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "worker/1\\win:5"
	if err := fs.Store(key, mkTuples(3, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get(key)
	if err != nil || len(got) != 3 {
		t.Fatalf("Get = %d tuples, err %v", len(got), err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewMemStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w))
			for i := 0; i < 50; i++ {
				if err := s.Store(key, mkTuples(4, int64(i))); err != nil {
					t.Error(err)
					return
				}
			}
			got, err := s.Get(key)
			if err != nil || len(got) != 200 {
				t.Errorf("worker %d: %d tuples, err %v", w, len(got), err)
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.TuplesStored != 8*200 {
		t.Errorf("TuplesStored = %d", st.TuplesStored)
	}
}

func TestLatencyStoreInjectsDelay(t *testing.T) {
	var slept time.Duration
	fake := func(d time.Duration) { slept += d }
	ls := NewLatencyStore(NewMemStore(), 10*time.Millisecond, fake)

	// One delay per operation, whatever it moves.
	if err := ls.Store("k", mkTuples(300, 0)); err != nil {
		t.Fatal(err)
	}
	if slept != 10*time.Millisecond {
		t.Errorf("Store slept %v, want perOp", slept)
	}
	if _, err := ls.Get("k"); err != nil {
		t.Fatal(err)
	}
	if slept != 20*time.Millisecond {
		t.Errorf("Store and Get slept %v, want 2 × perOp", slept)
	}
	if err := ls.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if ls.Stats().Deletes != 1 {
		t.Error("stats should pass through")
	}
}

func TestLatencyStorePropagatesErrors(t *testing.T) {
	ls := NewLatencyStore(NewMemStore(), 0, func(time.Duration) {})
	if _, err := ls.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func BenchmarkMemStoreRoundtrip(b *testing.B) {
	s := NewMemStore()
	ts := mkTuples(1000, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Store("k", ts)
		if _, err := s.Get("k"); err != nil {
			b.Fatal(err)
		}
		s.Delete("k")
	}
}

func testListTruncate(t *testing.T, s SpillStore) {
	t.Helper()
	for _, k := range []string{"op/a", "op/b", "other/c"} {
		if err := s.Store(k, mkTuples(2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Store("op/a", mkTuples(3, 50)); err != nil {
		t.Fatal(err)
	}

	keys, err := s.List("op/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "op/a" || keys[1] != "op/b" {
		t.Fatalf("List(op/) = %v", keys)
	}
	all, err := s.List("")
	if err != nil || len(all) != 3 {
		t.Fatalf("List(\"\") = %v, %v", all, err)
	}

	// Truncate back to the first chunk drops the appended tuples.
	if err := s.Truncate("op/a", 1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("op/a")
	if err != nil || len(got) != 2 {
		t.Fatalf("after Truncate(1): %d tuples, err %v", len(got), err)
	}
	// Truncating at or beyond the stored length is a no-op.
	if err := s.Truncate("op/a", 5); err != nil {
		t.Fatal(err)
	}
	if got, _ = s.Get("op/a"); len(got) != 2 {
		t.Fatalf("Truncate beyond length changed data: %d tuples", len(got))
	}
	// Truncating a missing key is a no-op.
	if err := s.Truncate("never", 3); err != nil {
		t.Fatalf("Truncate(missing) = %v", err)
	}
	// Truncate to zero removes the segment entirely.
	if err := s.Truncate("op/b", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("op/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Truncate(0) left segment visible: %v", err)
	}
	keys, err = s.List("op/")
	if err != nil || len(keys) != 1 || keys[0] != "op/a" {
		t.Fatalf("List after Truncate(0) = %v, %v", keys, err)
	}
	// Negative counts are rejected.
	if err := s.Truncate("op/a", -1); err == nil {
		t.Fatal("Truncate(-1) accepted")
	}
}

func TestMemStoreListTruncate(t *testing.T) { testListTruncate(t, NewMemStore()) }

func TestFileStoreListTruncate(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testListTruncate(t, fs)
}

func TestLatencyStoreListTruncate(t *testing.T) {
	testListTruncate(t, NewLatencyStore(NewMemStore(), 0, func(time.Duration) {}))
}

func TestKeyEncodingRoundTrip(t *testing.T) {
	keys := []string{
		"plain", "with/slash", "back\\slash", "nul\x00byte",
		"perc%ent", "sp ace", "unicode-é世", "q/spear/0#3", "",
	}
	for _, k := range keys {
		enc := encodeKey(k)
		for i := 0; i < len(enc); i++ {
			c := enc[i]
			ok := c == '.' || c == '_' || c == '-' || c == '%' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
			if !ok {
				t.Fatalf("encodeKey(%q) produced unsafe byte %q in %q", k, c, enc)
			}
		}
		dec, err := decodeKey(enc)
		if err != nil || dec != k {
			t.Fatalf("round trip %q -> %q -> %q (err %v)", k, enc, dec, err)
		}
	}
	for _, bad := range []string{"%", "%1", "%zz", "%G0"} {
		if _, err := decodeKey(bad); err == nil {
			t.Fatalf("decodeKey(%q) accepted malformed escape", bad)
		}
	}
}

// TestFileStoreTornWriteInvisible is the crash-safety contract: because
// Store writes to a temp file and renames, a crash mid-write can leave
// a stray temp file but never a half-written segment. Simulate the
// crash by planting a torn temp file next to a valid segment and
// verify Get and List see only committed data.
func TestFileStoreTornWriteInvisible(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Store("seg", mkTuples(4, 10)); err != nil {
		t.Fatal(err)
	}

	// A crashed append: partial frame bytes in an uncommitted temp file.
	torn := []byte{0xff, 0xee, 0xdd} // garbage, shorter than a frame header
	if err := os.WriteFile(filepath.Join(dir, ".spill-12345.tmp"), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := fs.Get("seg")
	if err != nil || len(got) != 4 {
		t.Fatalf("Get after torn temp = %d tuples, err %v", len(got), err)
	}
	keys, err := fs.List("")
	if err != nil || len(keys) != 1 || keys[0] != "seg" {
		t.Fatalf("List after torn temp = %v, %v", keys, err)
	}

	// Even if a crashed run somehow left garbage at the *end* of a
	// committed file (e.g. a pre-atomic-store legacy segment), Get must
	// error rather than return partial data silently.
	path := filepath.Join(dir, encodeKey("seg")+segSuffix)
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write([]byte{0x09, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	if _, err := fs.Get("seg"); !errors.Is(err, tuple.ErrCorrupt) {
		t.Fatalf("Get(torn tail) = %v, want ErrCorrupt", err)
	}
	// Truncate to the intact prefix repairs the segment.
	if err := fs.Truncate("seg", 1); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Get("seg"); err != nil || len(got) != 4 {
		t.Fatalf("Get after repair = %d tuples, err %v", len(got), err)
	}
}

// TestFileStoreIgnoresOlderSegments pins the format policy: a directory
// belongs to the binary that wrote it. What a FileStore from before the
// column image left behind — "<key>.seg", length-framed row batches — is
// neither listed nor read (its bytes would decode as a column image of
// something else, or not at all), and a new segment under the same key
// starts empty beside it.
func TestFileStoreIgnoresOlderSegments(t *testing.T) {
	dir := t.TempDir()
	rows := tuple.EncodeBatch(mkTuples(3, 0))
	old := filepath.Join(dir, encodeKey("q/scalar/0/p1")+".seg")
	if err := os.WriteFile(old, append(binary.LittleEndian.AppendUint64(nil, uint64(len(rows))), rows...), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := fs.List(""); err != nil || len(keys) != 0 {
		t.Fatalf("List = %v, %v; want no key for a row-coded segment", keys, err)
	}
	if _, err := fs.Get("q/scalar/0/p1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a row-coded segment = %v, want ErrNotFound", err)
	}
	if err := fs.Store("q/scalar/0/p1", mkTuples(2, 50)); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Get("q/scalar/0/p1"); err != nil || len(got) != 2 || got[0].Ts != 50 {
		t.Fatalf("Get = %v, %v; want the two rows stored by this binary", got, err)
	}
	if left, err := os.ReadFile(old); err != nil || len(left) != 8+len(rows) {
		t.Fatalf("the older segment was touched: %d bytes, %v", len(left), err)
	}
}

// TestMemStoreGetDoesNotAlias is a regression test for slice aliasing:
// a caller mutating the slice returned by Get (the async spill plane's
// cache hands fetched segments to window code that sorts and truncates
// them) must never corrupt what a later Get observes. MemStore decodes
// a fresh batch per Get; this pins that contract.
func TestMemStoreGetDoesNotAlias(t *testing.T) {
	s := NewMemStore()
	if err := s.Store("k", mkTuples(8, 100)); err != nil {
		t.Fatal(err)
	}
	first, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		first[i].Ts = -1
		first[i].Vals = nil
	}
	second, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range second {
		if got.Ts != 100+int64(i) || len(got.Vals) != 2 {
			t.Fatalf("tuple %d corrupted by earlier caller mutation: %v", i, got)
		}
	}
}

// TestLatencyStoreConcurrent drives LatencyStore from parallel
// goroutines the way the async spill plane's worker pool does. Run
// under -race it checks that the store serializes nothing it should
// not; the assertion checks that every call slept its per-op charge.
func TestLatencyStoreConcurrent(t *testing.T) {
	const (
		workers = 8
		ops     = 40
		perOp   = time.Microsecond
	)
	var slept atomic.Int64
	ls := NewLatencyStore(NewMemStore(), perOp, func(d time.Duration) { slept.Add(int64(d)) })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w))
			for i := 0; i < ops; i++ {
				if err := ls.Store(key, mkTuples(4, int64(i))); err != nil {
					t.Error(err)
					return
				}
				if _, err := ls.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := time.Duration(slept.Load()), time.Duration(workers*ops*2)*perOp; got != want {
		t.Errorf("slept %v, want %v (one per-op charge per call)", got, want)
	}
}

package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spear/internal/spill"
	"spear/internal/storage"
	"spear/internal/tuple"
)

// contractStores are the stores an archive chunk can end up in, each
// keeping a chunk as its column image, and the spill chunk codec over
// one of them.
func contractStores() map[string]func(t *testing.T) storage.SpillStore {
	return map[string]func(t *testing.T) storage.SpillStore{
		"mem": func(*testing.T) storage.SpillStore { return storage.NewMemStore() },
		"file": func(t *testing.T) storage.SpillStore {
			fs, err := storage.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
		"codec(mem)": func(*testing.T) storage.SpillStore { return &codecStore{MemStore: storage.NewMemStore()} },
	}
}

// codecStore holds spill.EncodeChunk/DecodeChunk, which the benchmark's
// spill probe measures at level 1, to the contract: it keeps each chunk
// as that encoding, one carrier tuple per Store call, in a MemStore, and
// counts the tuples the carriers stand for.
type codecStore struct {
	*storage.MemStore
	stored, fetched atomic.Int64
}

func (c *codecStore) Store(key string, ts []tuple.Tuple) error {
	enc, err := spill.EncodeChunk(ts, 1)
	if err != nil {
		return err
	}
	c.stored.Add(int64(len(ts)))
	return c.MemStore.Store(key, []tuple.Tuple{tuple.New(0, tuple.String_(string(enc)))})
}

func (c *codecStore) Get(key string) ([]tuple.Tuple, error) {
	carriers, err := c.MemStore.Get(key)
	if err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	for _, carrier := range carriers {
		ts, err := spill.DecodeChunk([]byte(carrier.Vals[0].AsString()))
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	c.fetched.Add(int64(len(out)))
	return out, nil
}

func (c *codecStore) Stats() storage.Stats {
	s := c.MemStore.Stats()
	s.TuplesStored, s.TuplesFetched = c.stored.Load(), c.fetched.Load()
	return s
}

// contractChunks are the chunk shapes a store must hand back bit for
// bit: every arm of the column image and every Ts delta width's corner.
func contractChunks() map[string][]tuple.Tuple {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	poisson := make([]tuple.Tuple, 512)
	ts := int64(1_600_000_000_000_000_000)
	for i := range poisson {
		ts += int64(i*i*7919%2_000_000) + 1 // nanosecond gaps of one to three bytes
		poisson[i] = tuple.New(ts, tuple.Float(float64(i)/3))
	}
	positions := make([]tuple.Tuple, 300)
	for i := range positions { // a count-domain pane stores positions as Ts
		positions[i] = tuple.New(int64(5000+i), tuple.Float(float64(i)), tuple.Int(int64(-i)))
	}
	return map[string][]tuple.Tuple{
		"empty":   {},
		"one row": {tuple.New(42, tuple.Float(3.5))},
		"ragged": {
			tuple.New(1, tuple.Float(1)), tuple.New(2, tuple.Float(2), tuple.Int(7)), tuple.New(3),
			tuple.New(4, tuple.Float(4), tuple.Int(8), tuple.String_("z")),
		},
		"mixed kinds": {
			tuple.New(1, tuple.Int(1), tuple.String_("a")), tuple.New(2, tuple.Float(nan), tuple.String_("b")),
			tuple.New(3, tuple.Bool(true), tuple.String_("c")),
		},
		"strings": {
			tuple.New(1, tuple.String_("bus-17"), tuple.Float(0.5)), tuple.New(2, tuple.String_(""), tuple.Float(math.Inf(-1))),
			tuple.New(3, tuple.String_("αβγ\x00\xff"), tuple.Float(math.Copysign(0, -1))),
		},
		"ts descends": {tuple.New(1_000_000), tuple.New(5), tuple.New(-5), tuple.New(-1_000_000)},
		"ts wraps": {
			tuple.New(math.MinInt64, tuple.Int(1)), tuple.New(math.MaxInt64, tuple.Int(2)),
			tuple.New(0, tuple.Int(3)), tuple.New(math.MinInt64, tuple.Int(4)),
		},
		"poisson gaps":    poisson,
		"count positions": positions,
	}
}

// cloneRows copies rows deeply enough that mutating the original's
// tuples and values leaves the copy alone.
func cloneRows(rows []tuple.Tuple) []tuple.Tuple {
	out := make([]tuple.Tuple, len(rows))
	for i, r := range rows {
		out[i] = tuple.Tuple{Ts: r.Ts, Vals: append([]tuple.Value(nil), r.Vals...)}
	}
	return out
}

// scribble overwrites what the caller of Store still owns.
func scribble(rows []tuple.Tuple) {
	for i := range rows {
		rows[i].Ts = -77
		for j := range rows[i].Vals {
			rows[i].Vals[j] = tuple.String_("recycled")
		}
	}
}

// wantRows fails unless got is want bit for bit: timestamps, widths,
// kinds and payloads (floats by their bits, through the value codec).
func wantRows(t *testing.T, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Ts != want[i].Ts || len(got[i].Vals) != len(want[i].Vals) {
			t.Fatalf("row %d: %v, want %v", i, got[i], want[i])
		}
		for j := range want[i].Vals {
			if !bytes.Equal(tuple.AppendValue(nil, got[i].Vals[j]), tuple.AppendValue(nil, want[i].Vals[j])) {
				t.Fatalf("row %d value %d: %v, want %v", i, j, got[i].Vals[j], want[i].Vals[j])
			}
		}
	}
}

// TestStoreContract holds every store to what the archive relies on: a
// chunk comes back as it went in whatever its shape, Store keeps nothing
// of the slice it was handed, the tuple counters count tuples, and
// Truncate cuts at Store calls.
func TestStoreContract(t *testing.T) {
	for sname, open := range contractStores() {
		for cname, rows := range contractChunks() {
			t.Run(sname+"/"+cname, func(t *testing.T) {
				s, want := open(t), cloneRows(rows)
				in := cloneRows(rows)
				if err := s.Store("q/scalar/0/p7", in); err != nil {
					t.Fatal(err)
				}
				scribble(in)
				got, err := s.Get("q/scalar/0/p7")
				if err != nil {
					t.Fatal(err)
				}
				wantRows(t, got, want)
				if st := s.Stats(); st.TuplesStored != int64(len(want)) || st.TuplesFetched != int64(len(want)) ||
					st.Stores != 1 || st.Gets != 1 || st.BytesStored <= 0 || st.BytesFetched < st.BytesStored {
					t.Errorf("Stats = %+v for one chunk of %d tuples stored and fetched", st, len(want))
				}
			})
		}
		t.Run(sname+"/truncate", func(t *testing.T) {
			s, chunks := open(t), contractChunks()
			var want []tuple.Tuple
			for i, name := range []string{"poisson gaps", "strings", "ts wraps"} {
				in := cloneRows(chunks[name])
				if err := s.Store("k", in); err != nil {
					t.Fatal(err)
				}
				scribble(in)
				if i < 2 {
					want = append(want, chunks[name]...)
				}
			}
			if err := s.Truncate("k", 2); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			wantRows(t, got, want)
			stored := int64(len(want) + len(chunks["ts wraps"]))
			if st := s.Stats(); st.TuplesStored != stored || st.TuplesFetched != int64(len(want)) {
				t.Errorf("Stats = %+v, want %d tuples stored and %d fetched", st, stored, len(want))
			}
		})
	}
}

// blockStore is what a store keeping chunk images in recycled blocks
// (MemStore, and the codec store over one) lets the contract check.
type blockStore interface {
	CheckBlocks() error
	FreeBlocks() int
}

// checkBlocks fails unless s, if it recycles blocks, keeps its free-list
// bound.
func checkBlocks(t *testing.T, s storage.SpillStore) {
	t.Helper()
	if bs, ok := s.(blockStore); ok {
		if err := bs.CheckBlocks(); err != nil {
			t.Fatal(err)
		}
	}
}

// sortedChunks lists contractChunks' names in a fixed order.
func sortedChunks() ([]string, map[string][]tuple.Tuple) {
	chunks := contractChunks()
	names := make([]string, 0, len(chunks))
	for name := range chunks {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, chunks
}

// TestStoreRecycling holds a store that reuses the memory of deleted and
// truncated segments to what the archive relies on: rows a Get returned
// own their memory, so a deleted segment's blocks written over by another
// segment leave them bit-equal, strings included; Store after Truncate
// appends after the chunks kept; and the free list never holds more
// bytes than the live segments.
func TestStoreRecycling(t *testing.T) {
	for sname, open := range contractStores() {
		t.Run(sname+"/delete", func(t *testing.T) {
			s := open(t)
			names, chunks := sortedChunks()
			// A segment that stays, so the free list may keep what a
			// delete hands back.
			for i := 0; i < 64; i++ {
				if err := s.Store("keep", chunks["poisson gaps"]); err != nil {
					t.Fatal(err)
				}
			}
			var want []tuple.Tuple
			for _, name := range names {
				if err := s.Store("a", cloneRows(chunks[name])); err != nil {
					t.Fatal(err)
				}
				want = append(want, cloneRows(chunks[name])...)
			}
			rows, err := s.Get("a")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("a"); err != nil {
				t.Fatal(err)
			}
			checkBlocks(t, s)
			// The plain MemStore's images fill whole blocks, so the
			// delete frees some and the next segment reuses them.
			bs, reuses := s.(*storage.MemStore)
			free := 0
			if reuses {
				if free = bs.FreeBlocks(); free == 0 {
					t.Fatal("deleting a segment freed no block")
				}
			}
			for _, name := range names {
				in := cloneRows(chunks[name])
				scribble(in)
				if err := s.Store("b", in); err != nil {
					t.Fatal(err)
				}
			}
			if reuses && bs.FreeBlocks() >= free {
				t.Fatalf("the next segment took none of the %d free blocks", free)
			}
			checkBlocks(t, s)
			wantRows(t, rows, want)
		})
		t.Run(sname+"/truncate then store", func(t *testing.T) {
			s, chunks := open(t), contractChunks()
			// Enough chunks to fill blocks, cut inside one.
			var want []tuple.Tuple
			for i := 0; i < 30; i++ {
				if err := s.Store("k", chunks["poisson gaps"]); err != nil {
					t.Fatal(err)
				}
				if i < 17 {
					want = append(want, chunks["poisson gaps"]...)
				}
			}
			if err := s.Truncate("k", 17); err != nil {
				t.Fatal(err)
			}
			checkBlocks(t, s)
			for _, name := range []string{"strings", "count positions"} {
				if err := s.Store("k", chunks[name]); err != nil {
					t.Fatal(err)
				}
				want = append(want, chunks[name]...)
			}
			checkBlocks(t, s)
			got, err := s.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			wantRows(t, got, want)
			if err := s.Truncate("k", 0); err != nil {
				t.Fatal(err)
			}
			checkBlocks(t, s)
			if _, err := s.Get("k"); err == nil {
				t.Fatal("Get after Truncate to 0 chunks found the segment")
			}
		})
	}
}

// TestStoreConcurrentRecycling runs Get, Delete and Store on overlapping
// keys from several goroutines (run under -race by make race). Every row
// a Get returns must be one its key's Stores wrote: a block handed from
// one segment to another while a Get decodes it shows as a foreign row.
func TestStoreConcurrentRecycling(t *testing.T) {
	const keys, workers, rounds = 3, 4, 60
	chunk := func(k, r int) []tuple.Tuple {
		rows := make([]tuple.Tuple, 400)
		for i := range rows {
			rows[i] = tuple.New(int64(k)<<32|int64(r*len(rows)+i), tuple.String_(fmt.Sprintf("key%d-%s", k, strings.Repeat("x", i%9))), tuple.Float(float64(k)))
		}
		return rows
	}
	for sname, open := range contractStores() {
		t.Run(sname, func(t *testing.T) {
			s := open(t)
			for i := 0; i < 16; i++ { // a segment that stays
				if err := s.Store("keep", chunk(keys, i)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						k := (w + r) % keys
						key := fmt.Sprintf("k%d", k)
						var err error
						switch r % 4 {
						case 0, 1:
							err = s.Store(key, chunk(k, r))
						case 2:
							var rows []tuple.Tuple
							if rows, err = s.Get(key); errors.Is(err, storage.ErrNotFound) {
								err = nil
							}
							for _, row := range rows {
								if row.Ts>>32 != int64(k) || len(row.Vals) != 2 || row.Vals[1].AsFloat() != float64(k) ||
									!strings.HasPrefix(row.Vals[0].AsString(), fmt.Sprintf("key%d-", k)) {
									t.Errorf("Get(%q) returned a row of another segment: %v", key, row)
									return
								}
							}
						case 3:
							err = s.Delete(key)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			checkBlocks(t, s)
		})
	}
}

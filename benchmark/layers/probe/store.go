package probe

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spear"
	"spear/benchmark/loadgen"
	"spear/benchmark/span"
	"spear/internal/storage"
)

// Store is the benchmark's own secondary storage S: an in-memory store
// behind an injected per-operation and per-KB latency, counting every
// call and, given a recorder, recording a span around each — so that a
// layer's self time is its span minus these children. It is the only
// place the benchmark can see the archive layer from outside.
type Store struct {
	storage.SpillStore // the in-memory store; List, Truncate and Stats pass through
	perOp              time.Duration
	perKB              time.Duration

	rec *span.Recorder
	// parent is the span the engine is working for when a call arrives.
	parent *atomic.Int64

	Stores, Gets               atomic.Int64
	TuplesFetched, BytesStored atomic.Int64
	mu                         sync.Mutex
	storeMicros, getMicros     []float64
}

// NewStore returns an empty store. rec may be nil (no spans); parent is
// read at every call.
func NewStore(perOp, perKB time.Duration, rec *span.Recorder, parent *atomic.Int64) *Store {
	return &Store{SpillStore: storage.NewMemStore(), perOp: perOp, perKB: perKB, rec: rec, parent: parent}
}

// Parent is the span calls are currently booked under.
func (s *Store) Parent() int64 { return s.parent.Load() }

// StoreMicros and GetMicros are the durations of every Store and Get
// call so far, in microseconds.
func (s *Store) StoreMicros() []float64 { return s.micros(&s.storeMicros) }
func (s *Store) GetMicros() []float64   { return s.micros(&s.getMicros) }

func (s *Store) micros(of *[]float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), *of...)
}

func (s *Store) delay(bytes int64) {
	if d := s.perOp + time.Duration(bytes/1024)*s.perKB; d > 0 {
		loadgen.Sleep(d)
	}
}

// tupleBytes sizes a chunk for the per-KB delay and the bytes-stored
// count; it walks every tuple, so runs that need neither skip it.
func (s *Store) tupleBytes(ts []spear.Tuple) (n int64) {
	if s.perKB == 0 && s.rec == nil {
		return 0
	}
	for _, t := range ts {
		n += int64(t.MemSize())
	}
	return n
}

// begin opens the call's span; the worker index is the third element of
// the engine's "<query>/<backend>/<worker>/..." keys.
func (s *Store) begin(op, key string) span.Open {
	if s.rec == nil {
		return span.Open{}
	}
	worker := -1
	if parts := strings.SplitN(key, "/", 4); len(parts) > 2 {
		if wi, err := strconv.Atoi(parts[2]); err == nil {
			worker = wi
		}
	}
	return s.rec.Begin("archive."+op, s.parent.Load(), worker)
}

func (s *Store) timed(into *[]float64, t0 time.Time) {
	us := float64(time.Since(t0)) / 1e3
	s.mu.Lock()
	*into = append(*into, us)
	s.mu.Unlock()
}

// Store implements storage.SpillStore.
func (s *Store) Store(key string, ts []spear.Tuple) error {
	sp, t0 := s.begin("store", key), time.Now()
	bytes := s.tupleBytes(ts)
	err := s.SpillStore.Store(key, ts)
	s.delay(bytes)
	s.Stores.Add(1)
	s.BytesStored.Add(bytes)
	s.timed(&s.storeMicros, t0)
	sp.End()
	return err
}

// Get implements storage.SpillStore.
func (s *Store) Get(key string) ([]spear.Tuple, error) {
	sp, t0 := s.begin("get", key), time.Now()
	ts, err := s.SpillStore.Get(key)
	s.delay(s.tupleBytes(ts))
	s.Gets.Add(1)
	s.TuplesFetched.Add(int64(len(ts)))
	s.timed(&s.getMicros, t0)
	sp.End()
	return ts, err
}

// Delete implements storage.SpillStore.
func (s *Store) Delete(key string) error {
	sp := s.begin("delete", key)
	s.delay(0)
	err := s.SpillStore.Delete(key)
	sp.End()
	return err
}

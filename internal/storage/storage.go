// Package storage models the secondary storage S the paper's workers
// spill to when a window does not fit in the memory budget b (§2: "S is
// independent of workers' contexts, is globally accessible (e.g., S3),
// and offers two methods: store(τ_w) and get(τ_w)").
//
// Three implementations are provided: an in-memory store (tests), a
// file-backed store (durability), and a latency wrapper that injects the
// per-operation delay of a remote object store so experiments feel the
// cost of spilling the way the paper's deployment does.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"spear/internal/tuple"
)

// ErrNotFound is returned by Get for an unknown segment key.
var ErrNotFound = errors.New("storage: segment not found")

// SpillStore is the secondary storage interface. Keys identify spilled
// window segments; each worker namespaces its own keys. Implementations
// must be safe for concurrent use by multiple workers.
type SpillStore interface {
	// Store persists a batch of tuples under key, appending to any
	// batch already stored there (a worker spills a window in chunks
	// as its buffer overflows). Implementations must not retain ts
	// after returning: callers recycle the chunk buffer.
	Store(key string, ts []tuple.Tuple) error
	// Get retrieves every tuple stored under key, in store order.
	Get(key string) ([]tuple.Tuple, error)
	// Delete drops a segment. Deleting a missing key is a no-op: the
	// evict path runs for every window whether or not it spilled.
	Delete(key string) error
	// List returns every stored key with the given prefix, sorted.
	// Checkpoint recovery uses it to reconcile segments written after
	// the restored snapshot.
	List(prefix string) ([]string, error)
	// Truncate keeps only the first chunks Store-calls' worth of data
	// under key, discarding later appends. Truncating a missing key, or
	// to a count at or beyond what is stored, is a no-op. Recovery uses
	// it to rewind a segment to its checkpointed length.
	Truncate(key string, chunks int) error
	// Stats reports cumulative operation counts and bytes moved.
	Stats() Stats
}

// Stats counts traffic to the store.
type Stats struct {
	Stores, Gets, Deletes int64
	BytesStored           int64
	BytesFetched          int64
	TuplesStored          int64
	TuplesFetched         int64
}

// MemStore is an in-memory SpillStore. It keeps the encoded form — a
// chunk is its column image (tuple.AppendColumns), the bytes a batch
// frame carries on the wire — so its cost model (encode on store, decode
// on get) matches the file store.
//
// A segment's images sit back to back in blocks of memBlock bytes (or of
// 16 images, when they fill less): Store encodes straight into the room
// after the segment's last image, or into a fresh block when that room
// may be short; an image that outgrows a block keeps what append made.
// Delete and Truncate hand blocks back to a free list never holding more
// bytes than the live segments' blocks. Get decodes under the mutex, so
// no block it reads is handed to another segment meanwhile.
type MemStore struct {
	mu    sync.Mutex
	segs  map[string][][]byte
	free  [][]byte // empty blocks
	live  int      // bytes of the blocks segments hold
	need  int      // room asked of a block: the largest image plus appendDeltas' slack, at most a block
	stats Stats
}

const memBlock = 64 << 10

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{segs: make(map[string][][]byte)}
}

// Store implements SpillStore.
func (m *MemStore) Store(key string, ts []tuple.Tuple) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	seg := m.segs[key]
	var room []byte
	if n := len(seg); n > 0 {
		room = seg[n-1][len(seg[n-1]):]
	}
	if cap(room) <= m.need {
		if n := len(m.free); n > 0 {
			room, m.free = m.free[n-1], m.free[:n-1]
		} else {
			room = make([]byte, 0, min(16*m.need, memBlock))
		}
	}
	img := tuple.AppendColumns(room, ts)
	if cap(img) != cap(room) { // append moved it: nothing goes after it
		img = img[:len(img):len(img)]
	}
	if cap(img) == memBlock { // it starts a block
		m.live += memBlock
	}
	m.need = max(m.need, min(len(img)+8, memBlock))
	m.segs[key] = append(seg, img)
	m.stats.Stores++
	m.stats.BytesStored += int64(len(img))
	m.stats.TuplesStored += int64(len(ts))
	return nil
}

// recycle frees the blocks that chunks start (capacity memBlock), then
// cuts the free list to the bytes the live segments hold.
func (m *MemStore) recycle(chunks [][]byte) {
	for _, c := range chunks {
		if cap(c) == memBlock {
			m.live -= memBlock
			m.free = append(m.free, c[:0])
		}
	}
	keep := min(len(m.free), m.live/memBlock)
	clear(m.free[keep:])
	m.free = m.free[:keep]
}

// Get implements SpillStore.
func (m *MemStore) Get(key string) ([]tuple.Tuple, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	chunks, ok := m.segs[key]
	m.stats.Gets++
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	var out []tuple.Tuple
	for _, c := range chunks {
		var err error
		if out, err = tuple.DecodeColumns(out, c); err != nil {
			return nil, err
		}
		m.stats.BytesFetched += int64(len(c))
	}
	m.stats.TuplesFetched += int64(len(out))
	return out, nil
}

// Delete implements SpillStore.
func (m *MemStore) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recycle(m.segs[key])
	delete(m.segs, key)
	m.stats.Deletes++
	return nil
}

// List implements SpillStore.
func (m *MemStore) List(prefix string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var keys []string
	for k := range m.segs {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Truncate implements SpillStore. The next Store appends after the last
// chunk kept.
func (m *MemStore) Truncate(key string, chunks int) error {
	if chunks < 0 {
		return fmt.Errorf("storage: negative chunk count %d", chunks)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	segs, ok := m.segs[key]
	if !ok || chunks >= len(segs) {
		return nil
	}
	m.recycle(segs[chunks:])
	if chunks == 0 {
		delete(m.segs, key)
		return nil
	}
	clear(segs[chunks:])
	m.segs[key] = segs[:chunks]
	return nil
}

// Stats implements SpillStore.
func (m *MemStore) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// FileStore is a SpillStore writing one file per segment under a
// directory, mirroring how a worker would use local disk or a mounted
// object store.
type FileStore struct {
	dir   string
	mu    sync.Mutex
	buf   []byte // Store's segment image, reused under mu
	stats Stats
}

// NewFileStore returns a store rooted at dir, creating it if needed.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// encodeKey maps a segment key to a filesystem-safe file name
// reversibly: bytes in [A-Za-z0-9._-] pass through, everything else is
// percent-encoded as %XX. List depends on the encoding being lossless
// to recover the original keys from directory entries.
func encodeKey(key string) string {
	const hex = "0123456789ABCDEF"
	safe := make([]byte, 0, len(key)+8)
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.' || c == '_' || c == '-':
			safe = append(safe, c)
		default:
			safe = append(safe, '%', hex[c>>4], hex[c&0x0f])
		}
	}
	return string(safe)
}

// decodeKey reverses encodeKey. Malformed escapes report an error so a
// stray file in the store directory cannot masquerade as a segment.
func decodeKey(name string) (string, error) {
	unhex := func(c byte) (byte, bool) {
		switch {
		case c >= '0' && c <= '9':
			return c - '0', true
		case c >= 'A' && c <= 'F':
			return c - 'A' + 10, true
		}
		return 0, false
	}
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c != '%' {
			out = append(out, c)
			continue
		}
		if i+2 >= len(name) {
			return "", fmt.Errorf("storage: truncated escape in %q", name)
		}
		hi, ok1 := unhex(name[i+1])
		lo, ok2 := unhex(name[i+2])
		if !ok1 || !ok2 {
			return "", fmt.Errorf("storage: bad escape in %q", name)
		}
		out = append(out, hi<<4|lo)
		i += 2
	}
	return string(out), nil
}

// segSuffix names a segment of column-image chunks. A directory
// belongs to the binary that wrote it: what an older one left under
// ".seg" (row-coded chunks) is not listed, not read and not converted.
const segSuffix = ".cseg"

func (f *FileStore) path(key string) string {
	return filepath.Join(f.dir, encodeKey(key)+segSuffix)
}

// writeAtomic writes data to path via a temp file in the same
// directory, fsyncs it, and renames it into place, so a crash mid-write
// leaves either the old contents or the new — never a torn segment.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".spill-*.tmp")
	if err != nil {
		return fmt.Errorf("storage: create temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("storage: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("storage: fsync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("storage: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("storage: rename temp: %w", err)
	}
	// Sync the directory so the rename itself survives a power loss.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Store implements SpillStore. A chunk is appended as its column image
// behind an 8-byte length. The append is crash-safe: the existing segment
// (if any) plus the new chunk are written to a temp file, fsynced, and
// renamed over the segment, so Get never observes a torn write.
func (f *FileStore) Store(key string, ts []tuple.Tuple) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	path := f.path(key)
	prev, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: read segment: %w", err)
	}
	f.buf = append(f.buf[:0], prev...)
	f.buf = binary.LittleEndian.AppendUint64(f.buf, 0) // the length, once known
	f.buf = tuple.AppendColumns(f.buf, ts)
	enc := len(f.buf) - len(prev) - 8
	binary.LittleEndian.PutUint64(f.buf[len(prev):], uint64(enc))
	if err := writeAtomic(path, f.buf); err != nil {
		return err
	}
	f.stats.Stores++
	f.stats.BytesStored += int64(enc)
	f.stats.TuplesStored += int64(len(ts))
	return nil
}

// Get implements SpillStore.
func (f *FileStore) Get(key string) ([]tuple.Tuple, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, err := os.ReadFile(f.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		return nil, fmt.Errorf("storage: read segment: %w", err)
	}
	var out []tuple.Tuple
	pos := 0
	for pos < len(data) {
		if pos+8 > len(data) {
			return nil, tuple.ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint64(data[pos:]))
		pos += 8
		if n < 0 || n > len(data)-pos {
			return nil, tuple.ErrCorrupt
		}
		if out, err = tuple.DecodeColumns(out, data[pos:pos+n]); err != nil {
			return nil, err
		}
		pos += n
	}
	f.stats.Gets++
	f.stats.BytesFetched += int64(len(data))
	f.stats.TuplesFetched += int64(len(out))
	return out, nil
}

// Delete implements SpillStore.
func (f *FileStore) Delete(key string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := os.Remove(f.path(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: delete segment: %w", err)
	}
	f.stats.Deletes++
	return nil
}

// List implements SpillStore.
func (f *FileStore) List(prefix string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: list dir: %w", err)
	}
	var keys []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		key, err := decodeKey(strings.TrimSuffix(name, segSuffix))
		if err != nil {
			// Not one of ours (e.g. a leftover temp or foreign file):
			// skip rather than fail the whole listing.
			continue
		}
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Truncate implements SpillStore. The surviving frames are rewritten
// atomically, so a crash mid-truncate leaves the old segment intact.
func (f *FileStore) Truncate(key string, chunks int) error {
	if chunks < 0 {
		return fmt.Errorf("storage: negative chunk count %d", chunks)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	path := f.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("storage: read segment: %w", err)
	}
	// Walk the length-framed chunks to find where chunk #chunks ends.
	pos, n := 0, 0
	for pos < len(data) && n < chunks {
		if pos+8 > len(data) {
			return fmt.Errorf("storage: truncate %q: %w", key, tuple.ErrCorrupt)
		}
		sz := int(binary.LittleEndian.Uint64(data[pos:]))
		if sz < 0 || sz > len(data)-pos-8 {
			return fmt.Errorf("storage: truncate %q: %w", key, tuple.ErrCorrupt)
		}
		pos += 8 + sz
		n++
	}
	if n < chunks || pos >= len(data) {
		return nil // already at or below the requested length
	}
	if pos == 0 {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("storage: truncate remove: %w", err)
		}
		return nil
	}
	return writeAtomic(path, data[:pos])
}

// Stats implements SpillStore.
func (f *FileStore) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// LatencyStore wraps a SpillStore and injects a fixed per-operation
// latency, modeling a remote object store. Clock is injectable so unit
// tests do not sleep.
type LatencyStore struct {
	inner SpillStore
	perOp time.Duration
	sleep func(time.Duration)
}

// NewLatencyStore wraps inner with perOp latency per call. A nil sleep
// uses time.Sleep.
func NewLatencyStore(inner SpillStore, perOp time.Duration, sleep func(time.Duration)) *LatencyStore {
	if sleep == nil {
		sleep = time.Sleep
	}
	return &LatencyStore{inner: inner, perOp: perOp, sleep: sleep}
}

func (l *LatencyStore) delay() {
	if l.perOp > 0 {
		l.sleep(l.perOp)
	}
}

// Store implements SpillStore.
func (l *LatencyStore) Store(key string, ts []tuple.Tuple) error {
	l.delay()
	return l.inner.Store(key, ts)
}

// Get implements SpillStore.
func (l *LatencyStore) Get(key string) ([]tuple.Tuple, error) {
	l.delay()
	return l.inner.Get(key)
}

// Delete implements SpillStore.
func (l *LatencyStore) Delete(key string) error {
	l.delay()
	return l.inner.Delete(key)
}

// List implements SpillStore.
func (l *LatencyStore) List(prefix string) ([]string, error) {
	l.delay()
	return l.inner.List(prefix)
}

// Truncate implements SpillStore.
func (l *LatencyStore) Truncate(key string, chunks int) error {
	l.delay()
	return l.inner.Truncate(key, chunks)
}

// Stats implements SpillStore.
func (l *LatencyStore) Stats() Stats { return l.inner.Stats() }

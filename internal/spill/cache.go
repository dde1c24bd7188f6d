package spill

import (
	"sync"

	"spear/internal/tuple"
)

// chunkCache is a size-bounded LRU of decoded spill segments, keyed by
// segment key. Entries are created by reads and extended by the plane's
// workers as later chunks of the same segment land, so a cached segment
// always equals what the inner store would return after the pending
// queue drains.
//
// The cache owns every slice it holds; get returns a deep copy
// (copy-on-get), so callers may mutate results freely — the shared-
// slice safety the SpillStore contract demands on the write side is
// mirrored on the read side here.
type chunkCache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	m     map[string]*cacheEnt
	// Doubly-linked LRU list; head is most recent, tail is the victim.
	head, tail *cacheEnt

	hits, misses, evictions int64
}

type cacheEnt struct {
	key        string
	ts         []tuple.Tuple
	bytes      int64
	prev, next *cacheEnt
}

func newChunkCache(max int64) *chunkCache {
	return &chunkCache{max: max, m: make(map[string]*cacheEnt)}
}

func (c *chunkCache) unlink(e *cacheEnt) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *chunkCache) pushFront(e *cacheEnt) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// evictOver drops least-recently-used entries until the budget holds.
// Caller must hold c.mu.
func (c *chunkCache) evictOver() {
	for c.bytes > c.max && c.tail != nil {
		v := c.tail
		c.unlink(v)
		delete(c.m, v.key)
		c.bytes -= v.bytes
		c.evictions++
	}
}

// get returns a deep copy of the cached segment and whether it was
// present.
func (c *chunkCache) get(key string) ([]tuple.Tuple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.unlink(e)
	c.pushFront(e)
	return copyTuples(e.ts), true
}

// insert adds (or replaces) a segment. The cache takes ownership of ts.
func (c *chunkCache) insert(key string, ts []tuple.Tuple) {
	var bytes int64
	for i := range ts {
		bytes += int64(ts[i].MemSize())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		c.bytes += bytes - e.bytes
		e.ts, e.bytes = ts, bytes
		c.unlink(e)
		c.pushFront(e)
	} else {
		e := &cacheEnt{key: key, ts: ts, bytes: bytes}
		c.m[key] = e
		c.pushFront(e)
		c.bytes += bytes
	}
	c.evictOver()
}

// append extends a cached segment with one more stored chunk, keeping
// it coherent with the inner store; a key that is not cached stays
// uncached (caching every write would defeat the memory bound). The
// cache may alias ts: callers pass plane-owned copies only.
func (c *chunkCache) append(key string, ts []tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return
	}
	var bytes int64
	for i := range ts {
		bytes += int64(ts[i].MemSize())
	}
	e.ts = append(e.ts, ts...)
	e.bytes += bytes
	c.bytes += bytes
	c.unlink(e)
	c.pushFront(e)
	c.evictOver()
}

// invalidate drops a key (delete/truncate paths).
func (c *chunkCache) invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return
	}
	c.unlink(e)
	delete(c.m, key)
	c.bytes -= e.bytes
}

func (c *chunkCache) stats() (hits, misses, evictions, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.bytes
}

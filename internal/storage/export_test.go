package storage

import "fmt"

// CheckBlocks holds a MemStore to its block accounting: live counts the
// blocks its segments start, and the free list holds no more bytes than
// they do.
func (m *MemStore) CheckBlocks() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	held := 0
	for _, chunks := range m.segs {
		for _, c := range chunks {
			if cap(c) == memBlock {
				held += memBlock
			}
		}
	}
	if free := len(m.free) * memBlock; held != m.live || free > m.live {
		return fmt.Errorf("%d bytes free, %d live, %d held by segments", free, m.live, held)
	}
	return nil
}

// FreeBlocks reports how many blocks the free list holds.
func (m *MemStore) FreeBlocks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.free)
}

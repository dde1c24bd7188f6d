// Package errchecklite is a source-check fixture for the errcheck-lite
// check: dropped errors from spill-store and tuple-codec calls.
package errchecklite

import (
	"spear/internal/spill"
	"spear/internal/storage"
	"spear/internal/tuple"
)

func spill(store storage.SpillStore, key string, ts []tuple.Tuple) {
	store.Store(key, ts)     // want "error returned by .Store is dropped"
	defer store.Delete(key)  // want "error returned by .Delete is dropped"
	go store.Store(key, nil) // want "error returned by .Store is dropped"

	ts2, _ := store.Get(key) // want "error returned by .Get is dropped"
	_ = ts2
}

func decode(b []byte) {
	tuple.DecodeBatch(b)            // want "tuple.DecodeBatch is dropped"
	v, _, _ := tuple.DecodeValue(b) // want "tuple.DecodeValue is dropped"
	ts, _ := tuple.DecodeBatch(b)   // want "tuple.DecodeBatch is dropped"
	_, _ = v, ts

	// What the stores read a chunk back with.
	rows, _ := tuple.DecodeColumns(nil, b) // want "tuple.DecodeColumns is dropped"
	chunk, _ := spill.DecodeChunk(b)       // want "spill.DecodeChunk is dropped"
	_, _ = rows, chunk
}

// Good: errors bound and handled or propagated.
func spillChecked(store storage.SpillStore, key string, ts []tuple.Tuple) error {
	if err := store.Store(key, ts); err != nil {
		return err
	}
	got, err := store.Get(key)
	if err != nil {
		return err
	}
	_ = got
	return store.Delete(key)
}

func decodeChecked(b []byte) error {
	ts, err := tuple.DecodeBatch(b)
	if err != nil {
		return err
	}
	_ = ts
	rows, err := tuple.DecodeColumns(nil, b)
	if err != nil {
		return err
	}
	chunk, err := spill.DecodeChunk(b)
	_, _ = rows, chunk
	return err
}

// Good: unrelated methods that happen to share names are outside the
// method set only when the file does not import the storage package —
// here they do match (documented heuristic), so this fixture keeps
// unrelated calls to differently named methods.
type cache struct{}

func (cache) Lookup(k string) string { return k }

func unrelated(c cache) string {
	return c.Lookup("x")
}

package checkpoint

import (
	"fmt"

	"spear/internal/storage"
	"spear/internal/tuple"
)

// Snapshot blobs and manifests travel through the same SpillStore the
// engine uses for window spilling, so every backend (memory, disk,
// latency-modelled) is automatically a checkpoint target. A blob is
// wrapped as a single one-field tuple; Delete-before-Store keeps the
// append-semantics store from concatenating a retried write onto a
// partial one.

// Store keys under the coordinator's namespace:
//
//	<ns>/m/<id as %016x>       manifest for checkpoint id
//	<ns>/s/<id as %016x>/w<n>  worker n's snapshot blob
//
// The fixed-width hex id makes List's lexicographic order the numeric
// id order, which recovery and GC rely on.
func manifestKey(ns string, id uint64) string { return fmt.Sprintf("%s/m/%016x", ns, id) }

func manifestPrefix(ns string) string { return ns + "/m/" }

func snapshotKey(ns string, id uint64, worker int) string {
	return fmt.Sprintf("%s/s/%016x/w%d", ns, id, worker)
}

// manifestID parses the id back out of a manifest key.
func manifestID(ns, key string) (uint64, bool) {
	pfx := manifestPrefix(ns)
	if len(key) != len(pfx)+16 || key[:len(pfx)] != pfx {
		return 0, false
	}
	return parseHex16(key[len(pfx):])
}

// snapshotID parses the checkpoint id out of a snapshot-blob key.
func snapshotID(ns, key string) (uint64, bool) {
	pfx := ns + "/s/"
	if len(key) < len(pfx)+17 || key[:len(pfx)] != pfx || key[len(pfx)+16] != '/' {
		return 0, false
	}
	return parseHex16(key[len(pfx) : len(pfx)+16])
}

func parseHex16(s string) (uint64, bool) {
	var id uint64
	for _, c := range []byte(s) {
		switch {
		case c >= '0' && c <= '9':
			id = id<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			id = id<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return id, true
}

// putBlob overwrites key with blob.
func putBlob(store storage.SpillStore, key string, blob []byte) error {
	if err := store.Delete(key); err != nil {
		return fmt.Errorf("checkpoint: clear %q: %w", key, err)
	}
	t := tuple.New(0, tuple.String_(string(blob)))
	if err := store.Store(key, []tuple.Tuple{t}); err != nil {
		return fmt.Errorf("checkpoint: store %q: %w", key, err)
	}
	return nil
}

// getBlob retrieves the blob stored under key.
func getBlob(store storage.SpillStore, key string) ([]byte, error) {
	ts, err := store.Get(key)
	if err != nil {
		return nil, err
	}
	if len(ts) != 1 || len(ts[0].Vals) != 1 || ts[0].Vals[0].Kind() != tuple.KindString {
		return nil, fmt.Errorf("%w: blob %q has unexpected shape", tuple.ErrCorrupt, key)
	}
	return []byte(ts[0].Vals[0].AsString()), nil
}

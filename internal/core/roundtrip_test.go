package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"spear/internal/sample"
	"spear/internal/stats"
	"spear/internal/storage"
	"spear/internal/window"
)

// The checkpoint round trip of each manager: drive a real stream (the
// compat cases'), snapshot it mid-stream, restore the blob into a fresh
// manager built from the same config, rewind the store, and require the
// two to hold the same state, field by field, pointers followed. The
// comparison is checkpointtest.StateDiff; checkpointtest imports this
// package (through spe), so the TestRoundTrip functions that call these
// live in package core_test and hand it in.

// StateDiff is checkpointtest.StateDiff.
type StateDiff func(live, restored any, allow map[string]string) []string

// roundTripAllow is what a restore does not give back, and why.
var roundTripAllow = map[string]string{
	"shell.cfg.Metrics":          "telemetry, outside the checkpoint domain: a recovered run does not re-count what the crashed one counted",
	"shell.cols":                 "the ingest kernel's scratch columns: dead between calls",
	"ids":                        "scratch, dead between calls: the grouped kernel's group ids, the windows a Storm fire staged",
	"ends":                       "scratch: where each window a Storm fire staged ends, dead between fires",
	"shell.arc.free":             "recycled pane buffers, empty",
	"dict":                       "not in the blob (DESIGN.md §18): RestoreState rebuilds it from the windows' keys, under other ids",
	"pool":                       "fired windows, cleared, awaiting reuse; dropped by RestoreState with the dictionary they point into",
	"wins.vals.gs.groupIndex":    "group ids are the dictionary's (DESIGN.md §18): the groups are compared by key",
	"wins.vals.gs.vals":          "in id order: compared by key",
	"wins.vals.known.groupIndex": "group ids are the dictionary's: the groups are compared by key",
	"wins.vals.known.res":        "in id order: compared by key",
}

func allowed(paths ...string) map[string]string {
	out := map[string]string{}
	for _, p := range paths {
		out[p] = roundTripAllow[p]
	}
	return out
}

// checkpointed is a manager with the Snapshotter contract.
type checkpointed interface {
	Manager
	SnapshotState() ([]byte, error)
	RestoreState([]byte) error
}

// roundTrip drives the first half of c's stream through l into a manager
// from mk, snapshots it, and restores the blob into another from mk over
// the same store: the two to compare.
func roundTrip[M checkpointed](t *testing.T, c compatCase, l lane, mk func(storage.SpillStore) (M, error)) (live, restored M) {
	t.Helper()
	store := storage.NewMemStore()
	live, err := mk(store)
	if err != nil {
		t.Fatal(err)
	}
	ts := compatStream(c)
	compatDrive(t, c, live, ts, 0, len(ts)/2+13, l)
	blob, err := live.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if restored, err = mk(store); err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(blob); err != nil {
		t.Fatalf("%s: restore: %v", c.name, err)
	}
	if rw, ok := any(restored).(interface{ RewindStore() error }); ok {
		if err := rw.RewindStore(); err != nil {
			t.Fatalf("%s: rewind: %v", c.name, err)
		}
	}
	return live, restored
}

// lanes are the deliveries a SPEAr manager is driven through: a tuple
// and 64 at a time.
var lanes = []lane{oneAtATime, {size: 64}}

func (l lane) String() string { return fmt.Sprintf("rows/%d", l.size) }

// spearRoundTrips runs roundTrip for every compat case of one manager kind
// (grouped or not) through every lane, keyed by case and lane.
func spearRoundTrips[M checkpointed](t *testing.T, grouped bool, mk func(Config) (M, error)) (live, restored map[string]M) {
	live, restored = map[string]M{}, map[string]M{}
	for _, c := range compatCases() {
		if (c.cfg(nil).KeyBy != nil) != grouped || strings.HasPrefix(c.name, "exact_") {
			continue
		}
		for _, l := range lanes {
			name := c.name + "/" + l.String()
			live[name], restored[name] = roundTrip(t, c, l, func(store storage.SpillStore) (M, error) {
				return mk(c.cfg(store))
			})
		}
	}
	return live, restored
}

func reportDiffs(t *testing.T, diffs []string) {
	t.Helper()
	for _, d := range diffs {
		t.Error(d)
	}
}

// RoundTripScalarManager checks every scalar compat case, on the sampled
// and the incremental path, through every lane.
func RoundTripScalarManager(t *testing.T, diff StateDiff) {
	live, restored := spearRoundTrips(t, false, NewScalarManager)
	reportDiffs(t, diff(live, restored, allowed("shell.cfg.Metrics", "shell.cols", "shell.arc.free")))
}

// RoundTripGroupedManager checks every grouped compat case, with groups
// unknown and known, through both row lanes. The windows' groups are compared
// by key, through the dictionary.
func RoundTripGroupedManager(t *testing.T, diff StateDiff) {
	live, restored := spearRoundTrips(t, true, NewGroupedManager)
	reportDiffs(t, diff(live, restored, allowed("shell.cfg.Metrics", "shell.cols", "ids", "shell.arc.free", "dict", "pool",
		"wins.vals.gs.groupIndex", "wins.vals.gs.vals", "wins.vals.known.groupIndex", "wins.vals.known.res")))
	byKey := func(ms map[string]*GroupedManager) map[string]map[window.ID]map[string]groupState {
		out := map[string]map[window.ID]map[string]groupState{}
		for name, m := range ms {
			out[name] = groupsByKey(m)
		}
		return out
	}
	reportDiffs(t, diff(byKey(live), byKey(restored), nil))
}

// groupState is one group of a grouped window.
type groupState struct {
	stats stats.Welford
	res   *sample.Reservoir // nil without known-group reservoirs
}

// groupsByKey is m's windows' groups by key, as its blob holds them.
func groupsByKey(m *GroupedManager) map[window.ID]map[string]groupState {
	out := map[window.ID]map[string]groupState{}
	ids, ws := m.wins.keys, m.wins.vals
	for i, w := range ws {
		id := ids[i]
		groups := map[string]groupState{}
		w.gs.Each(func(key string, s *stats.Welford) { groups[key] = groupState{stats: *s} })
		if w.known != nil {
			w.known.Each(func(key string, r *sample.Reservoir) {
				g := groups[key]
				g.res = r
				groups[key] = g
			})
		}
		out[id] = groups
	}
	return out
}

// baselineRoundTrips runs roundTrip for the named compat cases through
// the row lanes a tuple and 50 at a time — a watermark falls after every
// 50th tuple either way, so both lanes reach the snapshot point having
// seen the same stream and the same controls — and requires the two
// blobs to be the same bytes: a baseline's state does not depend on how
// its input was cut.
func baselineRoundTrips[M checkpointed](t *testing.T, names []string, mk func(Config) (M, error)) (live, restored map[string]M) {
	live, restored = map[string]M{}, map[string]M{}
	for _, c := range compatCases() {
		if !slices.Contains(names, c.name) {
			continue
		}
		var blobs [][]byte
		for _, l := range []lane{oneAtATime, {size: 50}} {
			name := c.name + "/" + l.String()
			live[name], restored[name] = roundTrip(t, c, l, func(store storage.SpillStore) (M, error) {
				return mk(c.cfg(store))
			})
			blob, err := live[name].SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
		if !bytes.Equal(blobs[0], blobs[1]) {
			t.Errorf("%s: the blob after runs of 50 differs from the one after runs of one", c.name)
		}
	}
	return live, restored
}

// RoundTripExactManager checks the exact baseline, scalar and grouped.
func RoundTripExactManager(t *testing.T, diff StateDiff) {
	live, restored := baselineRoundTrips(t, []string{"scalar_mean_sampled", "unknown_median"}, NewExactManager)
	reportDiffs(t, diff(live, restored, allowed("shell.cfg.Metrics", "shell.cols", "ids", "ends")))
}

// RoundTripIncrementalManager checks the incremental baseline on the
// scalar mean.
func RoundTripIncrementalManager(t *testing.T, diff StateDiff) {
	live, restored := baselineRoundTrips(t, []string{"scalar_mean_slices"}, NewIncrementalManager)
	reportDiffs(t, diff(live, restored, allowed("shell.cfg.Metrics", "shell.cols")))
}

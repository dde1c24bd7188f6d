package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"spear/internal/agg"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// updateCompat rewrites the fixtures under testdata/compat from the
// code being tested. They hold the format each reader accepts, the one
// its writer writes (DESIGN.md §10.4), with the results the writing
// commit continued to. Grouped: unknown_* were written at 'h' by the
// commit that took the window buffer out of the grouped manager (PR 39)
// and known_median* at 'g', with the .results files of the commit
// before PR 16. Scalar: scalar_median and scalar_mean_sampled were
// written at 'u' (PR 30), with the .results of the commit before PR 17.
// Each was regenerated at its manager's current format with its
// .results byte for byte unchanged. exact_median (Storm) was written at
// 'E' around the single buffer's 'R' and incremental_mean (Inc-Storm)
// at 'I', with the .results of the commit before the baselines became
// shapes of the shell. All ten were last regenerated when the header
// lost its shed count, the archive section its pane floor and a
// reservoir its algorithm byte (scalar 'w', grouped 'j', Storm 'c',
// Inc-Storm 'd'), every .results unchanged.
// Regenerate only to adopt a deliberate wire-format change, never to
// make this test pass.
var updateCompat = flag.Bool("update-compat", false, "rewrite testdata/compat from the current code")

type compatCase struct {
	name string
	cfg  func(store storage.SpillStore) Config // KeyBy nil: a ScalarManager
	keys func(rng *rand.Rand, i int) string
	// at, when set, runs before tuple i is fed (controller seams).
	at func(i int, m *ScalarManager)
}

// compatManager is a SPEAr manager as the tests drive it: the snapshot
// seams, RewindStore and the controller's two setters.
type compatManager interface {
	checkpointed
	RewindStore() error
	SetBudget(int)
	SetShedding(bool)
}

// manager builds the case's manager: the exact baseline for an exact_*
// case, else the SPEAr manager of its configuration.
func (c compatCase) manager(store storage.SpillStore) (checkpointed, error) {
	cfg := c.cfg(store)
	switch {
	case strings.HasPrefix(c.name, "exact_"):
		return NewExactManager(cfg)
	case strings.HasPrefix(c.name, "incremental_"):
		return NewIncrementalManager(cfg)
	case cfg.KeyBy != nil:
		return NewGroupedManager(cfg)
	}
	return NewScalarManager(cfg)
}

// churnKey mixes a few hot groups, groups that come back after sitting
// out several windows, and groups seen exactly once.
func churnKey(rng *rand.Rand, i int) string {
	switch r := rng.Intn(10); {
	case r < 5:
		return fmt.Sprintf("hot-%d", rng.Intn(6))
	case r < 7:
		return fmt.Sprintf("era-%d-%d", i/450, rng.Intn(4))
	default:
		return fmt.Sprintf("once-%d", i)
	}
}

// fewOnceKey is churnKey with few enough once-only groups for a window
// to fit a budget smaller than itself.
func fewOnceKey(rng *rand.Rand, i int) string {
	if rng.Intn(20) == 0 {
		return fmt.Sprintf("once-%d", i)
	}
	return fmt.Sprintf("%s-%d", [2]string{"hot", "era"}[rng.Intn(2)*(i/450)%2], rng.Intn(5))
}

func compatCases() []compatCase {
	mk := func(f agg.Func, budget, known int, epsilon float64) func(storage.SpillStore) Config {
		return func(store storage.SpillStore) Config {
			return Config{
				Spec:    window.Spec{Domain: window.TimeDomain, Range: 200, Slide: 50},
				Agg:     f,
				Value:   tuple.FieldFloat(0),
				KeyBy:   tuple.FieldString(1),
				Epsilon: epsilon, Confidence: 0.95, BudgetTuples: budget, KnownGroups: known,
				Store: store, Key: "compat", Seed: 7,
			}
		}
	}
	scalar := func(f agg.Func, budget int, epsilon float64) func(storage.SpillStore) Config {
		return func(store storage.SpillStore) Config {
			cfg := mk(f, budget, 0, epsilon)(store)
			cfg.KeyBy = nil
			return cfg
		}
	}
	eight := func(rng *rand.Rand, _ int) string { return fmt.Sprintf("g%d", rng.Intn(8)) }
	return []compatCase{
		// Answered from the per-group moments alone.
		{"unknown_mean", mk(agg.Func{Op: agg.Mean}, 400, 0, 0.10), churnKey, nil},
		// Congressional allocation over the frequencies, then a
		// stratified sample of the window fetched from S, or the whole
		// window.
		{"unknown_median", mk(agg.Median(), 150, 0, 0.22), fewOnceKey, nil},
		// Per-group reservoirs filled at arrival: answered from them,
		// and (at an ε they cannot meet) from the archive.
		{"known_median", mk(agg.Median(), 160, 8, 0.35), eight, nil},
		{"known_median_exact", mk(agg.Median(), 160, 8, 0.05), eight, nil},
		// A reservoir per window, answered from it or, where ε̂ misses,
		// from the archive.
		{"scalar_median", scalar(agg.Median(), 150, 0.12), eight, func(i int, m *ScalarManager) {
			if i == 810 {
				m.SetBudget(100) // live samples shrink below the bound
			}
		}},
		// The same through the mean's estimator, which reads the
		// sample's moments.
		{"scalar_mean_sampled", func(store storage.SpillStore) Config {
			cfg := scalar(agg.Func{Op: agg.Mean}, 60, 0.10)(store)
			cfg.DisableIncremental = true
			return cfg
		}, eight, nil},
		// One accumulator per slice and no archive.
		{"scalar_mean_slices", scalar(agg.Func{Op: agg.Mean}, 60, 0.10), eight, nil},
		// Windows tainted by a shedding spell, then the budget driven
		// to zero before the snapshot (reservoirs dropped, exact-only,
		// ModeShed with an infinite bound for the tainted ones) and
		// raised again after it.
		{"scalar_tainted_budget0", scalar(agg.Median(), 150, 0.12), eight, func(i int, m *ScalarManager) {
			switch i {
			case 420:
				m.SetShedding(true)
			case 470:
				m.SetShedding(false)
			case 590:
				m.SetBudget(0)
			case 760:
				m.SetBudget(150)
			}
		}},
		// The Storm baseline: every window from its buffer.
		{"exact_median", scalar(agg.Median(), 150, 0.12), eight, nil},
		// The Inc-Storm baseline: an accumulator per window.
		{"incremental_mean", scalar(agg.Func{Op: agg.Mean}, 60, 0.10), eight, nil},
	}
}

// compatStream is 1200 tuples, one per tick, shuffled within a lag of
// 20 ticks; a watermark follows every 50th tuple at that lag.
func compatStream(c compatCase) []tuple.Tuple {
	rng := rand.New(rand.NewSource(16))
	ts := make([]tuple.Tuple, 1200)
	for i := range ts {
		ts[i] = tuple.New(int64(i), tuple.Float(10+rng.NormFloat64()*float64(1+i%7)), tuple.String_(c.keys(rng, i)))
	}
	for i := 0; i+20 <= len(ts); i += 20 {
		rng.Shuffle(20, func(a, b int) { ts[i+a], ts[i+b] = ts[i+b], ts[i+a] })
	}
	return ts
}

// lane is how a drive delivers tuples: size at a time.
type lane struct{ size int }

var oneAtATime = lane{size: 1}

// compatDrive feeds ts[from:to] through l, a watermark at a lag of 20
// following every 50th tuple (in a batch, the batch), and returns the
// results as text, one window per line, floats as bit patterns.
func compatDrive(t *testing.T, c compatCase, m Manager, ts []tuple.Tuple, from, to int, l lane) string {
	t.Helper()
	var sb strings.Builder
	emit := func(rs []Result, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			fmt.Fprintf(&sb, "w=%d [%d,%d) n=%d sn=%d %s eps=%016x b=%d fetched=%v", r.WindowID, r.Start, r.End,
				r.N, r.SampleN, r.Mode, math.Float64bits(r.EstError), r.Budget, r.FetchedFromStore)
			if r.Groups == nil {
				fmt.Fprintf(&sb, " scalar=%016x", math.Float64bits(r.Scalar))
			}
			keys := make([]string, 0, len(r.Groups))
			for k := range r.Groups {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%016x", k, math.Float64bits(r.Groups[k]))
			}
			sb.WriteByte('\n')
		}
	}
	for i := from; i < to; i += l.size {
		j := min(i+l.size, to)
		for k := i; c.at != nil && k < j; k++ {
			c.at(k, m.(*ScalarManager))
		}
		emit(m.OnTupleBatch(ts[i:j]))
		if j/50 > i/50 {
			emit(m.OnWatermark(int64(j/50*50 - 20)))
		}
	}
	if to == len(ts) {
		emit(m.OnWatermark(math.MaxInt64))
	}
	return sb.String()
}

// TestSnapshotCompat restores mid-stream snapshots written by earlier
// commits (see updateCompat): the blob must be what the current code
// arrives at on its own, restore, re-encode to itself and continue to
// the same results, bit for bit.
func TestSnapshotCompat(t *testing.T) {
	for _, c := range compatCases() {
		t.Run(c.name, func(t *testing.T) {
			ts := compatStream(c)
			half := len(ts)/2 + 13 // mid-slide, windows open
			store := storage.NewMemStore()
			primer, err := c.manager(store)
			if err != nil {
				t.Fatal(err)
			}
			compatDrive(t, c, primer, ts, 0, half, oneAtATime)
			own, err := primer.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			blobPath := filepath.Join("testdata", "compat", c.name+".snap")
			resPath := filepath.Join("testdata", "compat", c.name+".results")
			if *updateCompat {
				rest := compatDrive(t, c, primer, ts, half, len(ts), oneAtATime)
				if err := os.MkdirAll(filepath.Dir(blobPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(blobPath, own, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(resPath, []byte(rest), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			blob, err := os.ReadFile(blobPath)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(resPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(own, blob) {
				t.Errorf("snapshot of the first %d tuples differs from the parent commit's (%d vs %d bytes)", half, len(own), len(blob))
			}
			// The primer left the archive panes the blob refers to in
			// store; the restored manager picks them up from there.
			m, err := c.manager(store)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.RestoreState(blob); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if r, ok := m.(interface{ RewindStore() error }); ok {
				if err := r.RewindStore(); err != nil {
					t.Fatal(err)
				}
			}
			again, err := m.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, blob) {
				t.Errorf("restored state re-encodes to different bytes (%d vs %d)", len(again), len(blob))
			}
			// restore → snapshot → restore → snapshot is a fixed point.
			m2, err := c.manager(store)
			if err != nil {
				t.Fatal(err)
			}
			if err := m2.RestoreState(again); err != nil {
				t.Fatalf("restore of the re-encoded blob: %v", err)
			}
			if twice, err := m2.SnapshotState(); err != nil || !bytes.Equal(twice, again) {
				t.Errorf("re-encoded blob is not a fixed point of restore and snapshot (err %v)", err)
			}
			if got := compatDrive(t, c, m, ts, half, len(ts), oneAtATime); got != string(want) {
				t.Errorf("results after restore differ from the parent commit's:\n got %d bytes\nwant %d bytes\n%s",
					len(got), len(want), firstDiffLine(got, string(want)))
			}
		})
	}
}

// retiredScalarV1 writes m's state, byte for byte, as the first scalar
// writer ('S', before the adaptive controller) did.
func retiredScalarV1(t *testing.T, m *ScalarManager) []byte {
	t.Helper()
	dst := appendCursor([]byte{'S'}, m.lc.Cursor())
	dst = tuple.AppendUvar(dst, uint64(m.curBudget))
	dst, err := m.arc.appendState(dst)
	if err != nil {
		t.Fatal(err)
	}
	ids := m.wins.keys
	dst = tuple.AppendUvar(dst, uint64(len(ids)))
	for _, id := range ids {
		w := m.wins.get(id)
		dst = tuple.AppendI64(dst, int64(id))
		dst = tuple.AppendI64(dst, 0) // the first position
		dst = w.res.AppendTo(dst)
		// The window's moments, 48 bytes: its count, then mean, m2, min,
		// max and sum.
		dst = tuple.AppendI64(dst, w.n)
		for i := 0; i < 5; i++ {
			dst = tuple.AppendF64(dst, 0)
		}
		dst = tuple.AppendBool(dst, false) // sampled: no incremental accumulator
	}
	return dst
}

// retiredGroupedV1 is the same for the first grouped writer ('G').
func retiredGroupedV1(t *testing.T, m *GroupedManager) []byte {
	t.Helper()
	c := m.lc.Cursor()
	dst := tuple.AppendBool([]byte{'G'}, m.arc != nil)
	dst = tuple.AppendBool(dst, c.Started)
	dst = tuple.AppendBool(dst, c.Fired)
	dst = tuple.AppendI64(dst, int64(c.NextFire))
	dst = tuple.AppendI64(dst, c.MaxPos)
	dst = tuple.AppendI64(dst, c.Late)
	dst = tuple.AppendI64(dst, c.Seq)
	dst, err := m.arc.appendState(dst)
	if err != nil {
		t.Fatal(err)
	}
	ids := m.wins.keys
	dst = tuple.AppendUvar(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = tuple.AppendI64(dst, int64(id))
		dst = m.wins.get(id).gs.AppendTo(dst)
		dst = tuple.AppendBool(dst, true)
		dst = m.wins.get(id).known.AppendTo(dst)
	}
	return dst
}

// TestRestoreRejectsRetiredFormats: a reader accepts exactly the
// format its writer writes. Well-formed blobs of the formats retired —
// each of which an earlier commit restored — fail like any unknown tag,
// and the manager they were offered to is left as it was.
func TestRestoreRejectsRetiredFormats(t *testing.T) {
	// atHalf is the manager of compat case name half way through its
	// stream: the state a retired blob of testdata/retired was taken
	// from, or one of its kind.
	atHalf := func(name string) checkpointed {
		for _, c := range compatCases() {
			if c.name == name {
				m, err := c.manager(storage.NewMemStore())
				if err != nil {
					t.Fatal(err)
				}
				ts := compatStream(c)
				compatDrive(t, c, m, ts, 0, len(ts)/2+13, oneAtATime)
				return m
			}
		}
		t.Fatalf("no %s compat case", name)
		return nil
	}
	retired := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", "retired", name+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cfg := mkCfg(agg.Func{Op: agg.Mean}, 50)
	cfg.DisableIncremental = true
	v1, _ := NewScalarManager(cfg)
	cfg.KeyBy, cfg.KnownGroups, cfg.Agg = tuple.FieldString(1), 4, agg.Median()
	g1, _ := NewGroupedManager(cfg)
	for i := 0; i < 80; i++ {
		tup := tuple.New(int64(i), tuple.Float(float64(i)), tuple.String_(fmt.Sprintf("g%d", i%4)))
		ingestOne(v1, tup)
		ingestOne(g1, tup)
	}

	for _, c := range []struct {
		tag  byte
		blob []byte
		m    checkpointed
	}{
		{'S', retiredScalarV1(t, v1), v1},
		// What the commit before PR 17 wrote for that very state.
		{'s', retired("scalar_median"), atHalf("scalar_median")},
		// Per-window incremental moments, as the commit before PR 25
		// wrote them for the state of scalar_mean_slices.
		{'t', retired("scalar_mean_incremental_v3"), atHalf("scalar_mean_slices")},
		// No archive flag, and a table of carries ahead of the slices:
		// the commit before PR 27 wrote it for that state when an
		// incremental query still archived, so it lists panes too.
		{'u', retired("scalar_mean_slices_archived"), atHalf("scalar_mean_slices")},
		{'G', retiredGroupedV1(t, g1), g1},
		// A window buffer's blob nested where the archive section is, as
		// the commit before PR 16 wrote it for the stream of
		// unknown_median.
		{'g', retired("buffered_median"), atHalf("unknown_median")},
		// The cursor's last three values in another order, as PR 39's
		// commit wrote them for that stream.
		{'h', retired("unknown_median"), atHalf("unknown_median")},
		// The exact baseline's 'E' around a single buffer's 'Q': its rows
		// in the retired row codec and three spill slots, as the commit
		// before the column-image layout wrote them for exact_median.
		{'E', retired("exact_median"), atHalf("exact_median")},
		// 'E' around the single buffer's 'R' (the cursor in another
		// order, the buffer's peak, its rows as a column image), as the
		// commit before the buffer became the manager's shape wrote it
		// for exact_median, and that commit's 'I' for incremental_mean.
		{'E', retired("exact_median_r"), atHalf("exact_median")},
		{'I', retired("incremental_mean"), atHalf("incremental_mean")},
		// Each shape's format before the pane table lost its floor, the
		// header its shed count and a reservoir its algorithm byte, as
		// the commit before that step wrote it for its compat case.
		{'v', retired("scalar_median_v"), atHalf("scalar_median")},
		{'i', retired("known_median_i"), atHalf("known_median")},
		{'b', retired("exact_median_b"), atHalf("exact_median")},
		{'a', retired("incremental_mean_a"), atHalf("incremental_mean")},
	} {
		if c.blob[0] != c.tag {
			t.Fatalf("%q blob starts with %q", c.tag, c.blob[0])
		}
		before, err := c.m.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		err = c.m.RestoreState(c.blob)
		if want := fmt.Sprintf("tag 0x%02x", c.tag); !errors.Is(err, tuple.ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("%q blob: RestoreState = %v, want ErrCorrupt naming %s", c.tag, err, want)
		}
		if after, err := c.m.SnapshotState(); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%q blob: the rejected restore changed the manager's state (err %v)", c.tag, err)
		}
	}
}

// TestRestoreRefusesABadPaneTable: the archive's section lists each
// pane that stored a chunk once, in ascending order, with its chunk
// count. A table with a pane of no chunk, two panes out of order or one
// pane twice is refused as corrupt and leaves the manager as it was.
func TestRestoreRefusesABadPaneTable(t *testing.T) {
	cfg := mkCfg(agg.Median(), 20)
	cfg.Spec = window.Spec{Domain: window.TimeDomain, Range: 300, Slide: 100}
	cfg.ArchiveChunk = 16
	m, _ := NewScalarManager(cfg)
	for i := 0; i < 250; i++ {
		ingestOne(m, tuple.New(int64(i), tuple.Float(float64(i%13))))
	}
	blob, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	at := 2 + 34 + len(tuple.AppendUvar(nil, uint64(cfg.BudgetTuples))) + 1 // tag, flag, cursor, budget, shedding
	if blob[at] != 3 {
		t.Fatalf("a table of %d panes, want 3", blob[at])
	}
	pane := func(i int) int { return at + 1 + 9*i } // the index's 8 bytes, a one-byte chunk count
	zero := bytes.Clone(blob)
	zero[pane(1)+8] = 0
	swapped := bytes.Clone(blob)
	copy(swapped[pane(0):], blob[pane(1):pane(2)])
	copy(swapped[pane(1):], blob[pane(0):pane(1)])
	twice := bytes.Clone(blob)
	copy(twice[pane(1):], blob[pane(0):pane(0)+8])
	for name, b := range map[string][]byte{"no chunk": zero, "out of order": swapped, "twice": twice} {
		r, _ := NewScalarManager(cfg)
		before, _ := r.SnapshotState()
		if err := r.RestoreState(b); !errors.Is(err, tuple.ErrCorrupt) || !strings.Contains(err.Error(), "archive pane table") {
			t.Errorf("%s: RestoreState = %v, want ErrCorrupt naming the archive pane table", name, err)
		}
		if after, _ := r.SnapshotState(); !bytes.Equal(after, before) {
			t.Errorf("%s: the rejected restore changed the manager's state", name)
		}
	}
	r, _ := NewScalarManager(cfg)
	if err := r.RestoreState(blob); err != nil {
		t.Fatalf("the untouched blob: %v", err)
	}
}

func firstDiffLine(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %.300s\nwant %.300s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}

// TestRestoreRefusesUnorderedWindowTables: every manager that keeps
// windows writes their table in ascending id order, which is the order
// its list holds them in; a blob whose table is not, a repeated id
// included, is refused and leaves the manager as it was.
func TestRestoreRefusesUnorderedWindowTables(t *testing.T) {
	scalar := mkCfg(agg.Median(), 16)
	scalar.Spec = window.Spec{Domain: window.TimeDomain, Range: 300, Slide: 100}
	grouped := scalar
	grouped.KeyBy = tuple.FieldString(1)
	mean := scalar
	mean.Agg = agg.Func{Op: agg.Mean}
	// Each case returns a good blob and one whose window table descends.
	for name, blobs := range map[string]func() (checkpointed, []byte, []byte){
		"scalar": func() (checkpointed, []byte, []byte) {
			m, _ := NewScalarManager(scalar)
			good := unordered(t, m, func() { m.wins.reverse() })
			r, _ := NewScalarManager(scalar)
			return r, good, must(m.SnapshotState())
		},
		"grouped": func() (checkpointed, []byte, []byte) {
			m, _ := NewGroupedManager(grouped)
			good := unordered(t, m, func() { m.wins.reverse() })
			r, _ := NewGroupedManager(grouped)
			return r, good, must(m.SnapshotState())
		},
		"incremental": func() (checkpointed, []byte, []byte) {
			m, _ := NewIncrementalManager(mean)
			good := unordered(t, m, func() { m.wins.reverse() })
			r, _ := NewIncrementalManager(mean)
			return r, good, must(m.SnapshotState())
		},
	} {
		r, good, bad := blobs()
		before, _ := r.SnapshotState()
		if err := r.RestoreState(bad); !errors.Is(err, tuple.ErrCorrupt) || !strings.Contains(err.Error(), "out of id order") {
			t.Errorf("%s (tag %q): RestoreState = %v, want ErrCorrupt naming the id order", name, bad[0], err)
		}
		if after, _ := r.SnapshotState(); !bytes.Equal(after, before) {
			t.Errorf("%s: the rejected restore changed the manager's state", name)
		}
		if err := r.RestoreState(good); err != nil {
			t.Errorf("%s: the ordered blob: %v", name, err)
		}
	}
}

// unordered drives m until it holds three windows and returns its blob,
// then runs reverse on its window list.
func unordered(t *testing.T, m checkpointed, reverse func()) []byte {
	t.Helper()
	rows := make([]tuple.Tuple, 250)
	for i := range rows {
		rows[i] = tuple.New(int64(i), tuple.Float(float64(i%13)), tuple.String_(fmt.Sprint(i%4)))
	}
	if _, err := m.OnTupleBatch(rows); err != nil {
		t.Fatal(err)
	}
	good := must(m.SnapshotState())
	reverse()
	return good
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spear/internal/agg"
	"spear/internal/sample"
	"spear/internal/stats"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// The differential test drives a GroupedManager — whose per-window state
// is arrays indexed through the ids of one shared key dictionary — beside the
// layout it replaced, written out plainly: a map of Welfords (and a map
// of reservoirs) per window, nothing shared, nothing recycled. After
// every few tuples the two must hold the same windows, the same groups
// in each, bit-identical moments and reservoirs, and the dictionary must
// hold exactly the keys the open windows hold.

type diffWin struct {
	groups map[string]*stats.Welford
	res    map[string]*sample.Reservoir // nil: opened, or left, without reservoirs
	total  int64
}

type diffRef struct {
	spec          window.Spec
	seed          int64
	known, budget int
	wins          map[window.ID]*diffWin
}

func (r *diffRef) perGroup() int {
	if r.known == 0 {
		return 0
	}
	return r.budget / r.known
}

func (r *diffRef) add(pos int64, key string, v float64) {
	lo, hi := r.spec.Assign(pos)
	for id := lo; id <= hi; id++ {
		w := r.wins[id]
		if w == nil {
			w = &diffWin{groups: map[string]*stats.Welford{}}
			if r.perGroup() > 0 {
				w.res = map[string]*sample.Reservoir{}
			}
			r.wins[id] = w
		}
		wf := w.groups[key]
		if wf == nil {
			wf = &stats.Welford{}
			w.groups[key] = wf
		}
		wf.Add(v)
		w.total++
		if w.res != nil {
			rs := w.res[key]
			if rs == nil {
				seed := sample.DeriveSeed(r.seed, int64(id))
				for _, c := range key {
					seed = seed*31 + int64(c)
				}
				rs = sample.NewReservoir(r.perGroup(), seed, sample.AlgoL)
				w.res[key] = rs
			}
			rs.Add(v)
		}
	}
}

func (r *diffRef) setBudget(b int) {
	r.budget = b
	for _, w := range r.wins {
		if w.res == nil {
			continue
		}
		if r.perGroup() <= 0 {
			w.res = nil
			continue
		}
		for _, rs := range w.res {
			rs.Resize(r.perGroup())
		}
	}
}

// fired checks the results of one call against the reference windows
// they close, and closes those.
func (r *diffRef) fired(t *testing.T, f agg.Func, rs []Result) {
	t.Helper()
	for _, res := range rs {
		w := r.wins[res.WindowID]
		if w == nil {
			t.Fatalf("window %d fired; the reference holds no tuples for it", res.WindowID)
		}
		delete(r.wins, res.WindowID)
		if res.N != w.total || len(res.Groups) != len(w.groups) {
			t.Fatalf("window %d: N=%d groups=%d, reference N=%d groups=%d",
				res.WindowID, res.N, len(res.Groups), w.total, len(w.groups))
		}
		for k, got := range res.Groups {
			var want float64
			switch res.Mode {
			case ModeIncremental:
				want, _ = f.FromWelford(w.groups[k])
			case ModeSampled, ModeShed:
				if w.res == nil {
					continue
				}
				want = f.Estimate(w.res[k].Items(), w.res[k].Seen())
			default:
				continue // recomputed from the archive
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("window %d (%s) group %q = %v, reference %v", res.WindowID, res.Mode, k, got, want)
			}
		}
	}
}

// compare checks the manager's open windows against the reference's.
func (r *diffRef) compare(t *testing.T, m *GroupedManager, at int) {
	t.Helper()
	if len(m.wins) != len(r.wins) {
		t.Fatalf("tuple %d: %d windows open, reference %d", at, len(m.wins), len(r.wins))
	}
	live := map[string]bool{}
	mem := 0
	for id, rw := range r.wins {
		w := m.wins[id]
		if w == nil {
			t.Fatalf("tuple %d: window %d not open", at, id)
		}
		if w.gs.Len() != len(rw.groups) || w.gs.Total() != rw.total {
			t.Fatalf("tuple %d window %d: %d groups, N=%d; reference %d groups, N=%d",
				at, id, w.gs.Len(), w.gs.Total(), len(rw.groups), rw.total)
		}
		w.gs.Each(func(k string, wf *stats.Welford) {
			live[k] = true
			ref := rw.groups[k]
			if ref == nil {
				t.Fatalf("tuple %d window %d: group %q is not in the reference", at, id, k)
			}
			if !bytes.Equal(wf.AppendTo(nil), ref.AppendTo(nil)) {
				t.Fatalf("tuple %d window %d group %q: moments differ", at, id, k)
			}
			if got := w.gs.Get(k); got != wf {
				t.Fatalf("tuple %d window %d: Get(%q) is not the group Each visits", at, id, k)
			}
			mem += len(k) + 4 + 8 + 48
		})
		if (w.known != nil) != (rw.res != nil) {
			t.Fatalf("tuple %d window %d: reservoirs present=%v, reference %v", at, id, w.known != nil, rw.res != nil)
		}
		if w.known == nil {
			continue
		}
		if w.known.Len() != len(rw.res) {
			t.Fatalf("tuple %d window %d: %d reservoirs, reference %d", at, id, w.known.Len(), len(rw.res))
		}
		w.known.Each(func(k string, rs *sample.Reservoir) {
			live[k] = true
			ref := rw.res[k]
			if ref == nil {
				t.Fatalf("tuple %d window %d: reservoir %q is not in the reference", at, id, k)
			}
			if !bytes.Equal(rs.AppendTo(nil), ref.AppendTo(nil)) {
				t.Fatalf("tuple %d window %d group %q: reservoirs differ", at, id, k)
			}
			mem += len(k) + ref.MemSize() + 48
		})
	}
	// The walk the byte counters replaced: r + 4 + f per group present.
	if got := m.BudgetMemUsage(); got != mem {
		t.Fatalf("tuple %d: BudgetMemUsage %d, a walk over the groups gives %d", at, got, mem)
	}
	// No leak (an id outliving its last window) and no aliasing (two
	// keys on one id would have shown up as a wrong group above).
	if m.dict.Len() != len(live) {
		t.Fatalf("tuple %d: dictionary holds %d ids, the open windows hold %d groups", at, m.dict.Len(), len(live))
	}
}

// diffKey draws from hot groups, groups of one era, groups that sit out
// every other era (long enough for their id to be recycled) and come
// back, once-only groups, and the empty key.
func diffKey(rng *rand.Rand, i int) string {
	switch r := rng.Intn(20); {
	case r < 8:
		return fmt.Sprintf("hot%d", rng.Intn(6))
	case r < 11:
		return fmt.Sprintf("era%d-%d", i/600, rng.Intn(4))
	case r < 14 && (i/700)%2 == 0:
		return fmt.Sprintf("back%d", rng.Intn(5))
	case r == 19:
		return ""
	default:
		return fmt.Sprintf("once%d", i)
	}
}

func TestGroupedStateMatchesPerWindowMaps(t *testing.T) {
	const (
		slide  = 40
		block  = 16 // tuples shuffled together; the watermark lags by as much
		tuples = 3600
	)
	for _, known := range []int{0, 8} {
		for _, domain := range []window.Domain{window.TimeDomain, window.CountDomain} {
			for _, overlap := range []int64{1, 2, 8} {
				for _, driver := range []string{"row", "batch"} {
					name := fmt.Sprintf("known=%d/domain=%d/overlap=%d/%s", known, domain, overlap, driver)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(known)*1000 + int64(domain)*100 + overlap))
						cfg := Config{
							Spec:    window.Spec{Domain: domain, Range: overlap * slide, Slide: slide},
							Agg:     agg.Func{Op: agg.Mean},
							Value:   tuple.FieldFloat(0),
							KeyBy:   tuple.FieldString(1),
							Epsilon: 0.5, Confidence: 0.95, BudgetTuples: 400, KnownGroups: known,
							Store: storage.NewMemStore(), Key: "diff", Seed: 99,
						}
						if known > 0 {
							cfg.Agg, cfg.BudgetTuples = agg.Median(), 160
						}
						m, err := NewGroupedManager(cfg)
						if err != nil {
							t.Fatal(err)
						}
						ref := &diffRef{spec: cfg.Spec, seed: cfg.Seed, known: known, budget: cfg.BudgetTuples, wins: map[window.ID]*diffWin{}}

						// One tuple per tick, a hole of three window
						// lengths now and then (windows with no tuples),
						// arrival shuffled within each block.
						ts := make([]tuple.Tuple, tuples)
						tick := int64(0)
						for i := range ts {
							if tick++; i%900 == 899 {
								tick += 3 * cfg.Spec.Range
							}
							ts[i] = tuple.New(tick, tuple.Float(rng.NormFloat64()*float64(1+i%5)), tuple.String_(diffKey(rng, i)))
						}
						next := make([]int64, 0, tuples/block) // the watermark after each block
						for i := 0; i < tuples; i += block {
							wm := int64(math.MaxInt64)
							if i+block < tuples {
								wm = ts[i+block].Ts
							}
							next = append(next, wm)
							rng.Shuffle(block, func(a, b int) { ts[i+a], ts[i+b] = ts[i+b], ts[i+a] })
						}

						check := func(rs []Result, err error) {
							t.Helper()
							if err != nil {
								t.Fatal(err)
							}
							ref.fired(t, cfg.Agg, rs)
						}
						for i := 0; i < tuples; i += block {
							if known > 0 && rng.Intn(6) == 0 {
								// Mid-window retuning: reservoirs shrink, grow,
								// go (budget below the group count) and stay
								// gone for windows opened meanwhile.
								b := []int{0, 5, 8, 24, 64, 160}[rng.Intn(6)]
								m.SetBudget(b)
								ref.setBudget(b)
								m.SetShedding(rng.Intn(2) == 0)
							}
							for j := i; j < i+block; {
								n := 1
								if driver != "row" {
									n = 1 + rng.Intn(i+block-j)
								}
								chunk := ts[j : j+n]
								// The reference goes first. A count window
								// that fires between two rows of a batch
								// holds none of the later rows' positions, so
								// it can be fed the whole chunk ahead.
								for k, tp := range chunk {
									pos := tp.Ts
									if domain == window.CountDomain {
										pos = m.lc.Seq() + int64(k)
									}
									ref.add(pos, cfg.KeyBy(tp), cfg.Value(tp))
								}
								check(m.OnTupleBatch(chunk)) // "row" takes runs of one
								j += n
							}
							if domain == window.TimeDomain {
								check(m.OnWatermark(next[i/block]))
							}
							ref.compare(t, m, i+block)
						}
						if domain == window.CountDomain {
							// Count windows still filling stay open; close
							// the books on what did fire.
							ref.compare(t, m, tuples)
							return
						}
						if len(m.wins) != 0 || m.dict.Len() != 0 {
							t.Fatalf("after the closing watermark: %d windows open, %d ids held", len(m.wins), m.dict.Len())
						}
					})
				}
			}
		}
	}
}

// TestGroupedIDOutlivesLaterWindows was written to pin why an id is freed
// by a count of the windows holding it: on the buffered path the manager
// clipped a tuple's windows by a cursor of its own that lagged its
// buffer's, so a tuple that was late only for windows that had fired
// empty opened a groupedWin nothing would ever fire (the buffer had
// dropped the tuple), and that window went on naming its group, and
// growing every snapshot, for good. The manager now ingests and fires by
// one lifecycle (DESIGN.md §20), and what the test pins is that the
// stranded window is gone: the manager holds only windows a fire can
// still reach, the tuple is counted as dropped, a tuple that straddles
// the fired range reaches its open window only, and the snapshot
// returns to its size.
func TestGroupedIDOutlivesLaterWindows(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 64)
	cfg.Spec = window.Spec{Domain: window.TimeDomain, Range: 200, Slide: 100}
	cfg.KeyBy = tuple.FieldString(1)
	m, err := NewGroupedManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(ts int64, key string) {
		t.Helper()
		if _, err := ingestOne(m, tuple.New(ts, tuple.Float(1), tuple.String_(key))); err != nil {
			t.Fatal(err)
		}
	}
	fire := func(wm int64) []Result {
		t.Helper()
		rs, err := m.OnWatermark(wm)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	// A round: two tuples one slide on, and a watermark that closes every
	// window they are in. Every round leaves the same state behind, a
	// slide later.
	round := func(i int64) int {
		t.Helper()
		feed(2050+i*1000, "a")
		feed(2051+i*1000, fmt.Sprintf("once%d", i))
		fire(2300 + i*1000)
		if len(m.wins) != 0 || m.dict.Len() != 0 {
			t.Fatalf("round %d left %d windows open and %d ids held", i, len(m.wins), m.dict.Len())
		}
		snap, err := m.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return len(snap)
	}

	size := round(0)

	// Late for every window it is in: 44 and 45 have fired, empty.
	feed(5050, "b")
	fire(4900) // closes 22..47, which hold nothing and fire nothing
	feed(4500, "late")
	if got := m.LateDropped(); got != 1 {
		t.Errorf("LateDropped = %d after one late tuple, want 1", got)
	}
	if len(m.wins) != 2 || m.wins[49] == nil || m.wins[50] == nil || m.dict.Len() != 1 {
		t.Errorf("open windows %v holding %d ids, want 49 and 50 holding \"b\"",
			window.IDsIn(m.wins, math.MinInt64, math.MaxInt64), m.dict.Len())
	}
	fire(5300)
	for i := int64(4); i <= 6; i++ {
		if got := round(i); got != size {
			t.Errorf("snapshot after round %d is %d bytes, %d before the late tuple", i, got, size)
		}
	}

	// Straddling: window 91 [9100, 9300) fires empty, 92 stays open; a
	// tuple at 9250 is in both and must reach 92 only.
	feed(9350, "b")
	fire(9300)
	feed(9250, "straddle")
	if got := m.LateDropped(); got != 1 {
		t.Errorf("LateDropped = %d: the straddling tuple was dropped", got)
	}
	if len(m.wins) != 2 || m.wins[91] != nil || m.wins[92] == nil || m.wins[92].gs.Get("straddle") == nil {
		t.Fatalf("open windows %v, want 92 (holding the straddling tuple) and 93", window.IDsIn(m.wins, math.MinInt64, math.MaxInt64))
	}
	rs := fire(9400)
	if len(rs) != 1 || rs[0].WindowID != 92 || rs[0].N != 2 || len(rs[0].Groups) != 2 {
		t.Fatalf("fired %+v, want 92 with N=2 over \"b\" and \"straddle\"", rs)
	}
	fire(math.MaxInt64)
	if len(m.wins) != 0 || m.dict.Len() != 0 {
		t.Errorf("after the closing watermark: %d windows open, %d ids held", len(m.wins), m.dict.Len())
	}
}

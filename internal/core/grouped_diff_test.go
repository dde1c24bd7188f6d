package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spear/internal/agg"
	"spear/internal/col"
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
	if r.known == 0 && lo < 0 {
		// The buffered path keeps no metadata for the windows that
		// start before position 0 and answers them from the buffer.
		lo = 0
	}
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
		if w == nil && r.known == 0 && res.WindowID < 0 {
			continue
		}
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
				continue // recomputed from the archive or the buffer
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
	if m.buf != nil {
		mem = m.buf.MemUsage()
	}
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
				for _, driver := range []string{"row", "batch", "column"} {
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
							Columnar: ColumnarSpec{Enabled: true, ValueField: 0, KeyField: 1},
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

						cb := col.Get()
						defer col.Put(cb)
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
										pos = m.seq + int64(k)
									}
									ref.add(pos, cfg.KeyBy(tp), cfg.Value(tp))
								}
								switch driver {
								case "row":
									check(m.OnTuple(chunk[0]))
								case "batch":
									check(m.OnTupleBatch(chunk))
								default:
									cb.SetRows(chunk)
									check(m.OnColumnBatch(cb))
								}
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

// TestGroupedIDOutlivesLaterWindows pins why an id is freed by a count
// of the windows holding it and not by "the highest window that touched
// it has fired". On the buffered path a tuple that is late only for
// windows that fired empty opens a window nothing will ever fire (the
// buffer has dropped the tuple); that window must go on naming its own
// group while later windows with the same key come and go and the ids
// around it are recycled.
func TestGroupedIDOutlivesLaterWindows(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 64)
	cfg.KeyBy = tuple.FieldString(1)
	m, err := NewGroupedManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(ts int64, key string) {
		t.Helper()
		if _, err := m.OnTuple(tuple.New(ts, tuple.Float(1), tuple.String_(key))); err != nil {
			t.Fatal(err)
		}
	}
	fire := func(wm int64) {
		t.Helper()
		if _, err := m.OnWatermark(wm); err != nil {
			t.Fatal(err)
		}
	}
	feed(10, "a")
	feed(1000, "b")
	fire(900)      // window 0 fires; 1..8 are empty and fire nothing
	feed(500, "a") // late for the buffer, not for the manager: opens window 5
	for i := int64(0); i < 20; i++ {
		feed(1001+i*100, "a") // "a" again, in windows that do fire
		feed(1002+i*100, fmt.Sprintf("once%d", i))
		fire(1100 + i*100)
	}
	w := m.wins[5]
	if w == nil {
		t.Skip("the stranded window is gone: the lifecycle no longer strands it")
	}
	var keys []string
	w.gs.Each(func(k string, _ *stats.Welford) { keys = append(keys, k) })
	if len(keys) != 1 || keys[0] != "a" || w.gs.Get("a") == nil {
		t.Fatalf("window 5 holds %q, want its own group \"a\"", keys)
	}
}

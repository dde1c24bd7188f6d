// Package loadgen is the benchmark's load generator: seeded input
// blocks shaped like the paper's datasets, and a replaying source that
// feeds them to the engine saturated (closed loop) or on a schedule
// (open loop).
//
// The shapes are copied from internal/dataset, not imported: a change
// to the program must not be able to change the load it is measured
// under. The same seed always yields the same block; every block
// carries an FNV checksum so two runs can prove they saw the same
// input.
package loadgen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"syscall"
	"time"

	"spear"
)

// Block is one replayable unit of input. Tuples are in arrival order
// with event timestamps in [0, Span); Span is a whole number of the
// workload's window slides, so replaying the block with timestamps
// shifted by Span per cycle keeps the window grid aligned and makes
// window contents periodic.
type Block struct {
	Tuples   []spear.Tuple
	Span     int64
	Checksum uint64
}

// seal computes the block's checksum over every timestamp and value in
// arrival order.
func seal(ts []spear.Tuple, span int64) *Block {
	h := fnv.New64a()
	var buf [8]byte
	for _, t := range ts {
		binary.LittleEndian.PutUint64(buf[:], uint64(t.Ts))
		h.Write(buf[:])
		for _, v := range t.Vals {
			if v.Kind() == spear.KindString {
				h.Write([]byte(v.AsString()))
				continue
			}
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.AsFloat()))
			h.Write(buf[:])
		}
	}
	return &Block{Tuples: ts, Span: span, Checksum: h.Sum64()}
}

// expGap is an exponential inter-arrival gap in nanoseconds.
func expGap(rng *rand.Rand, ratePerSec float64) int64 {
	gap := rng.ExpFloat64() / ratePerSec * float64(time.Second)
	if gap < 1 {
		gap = 1
	}
	return int64(gap)
}

// DEC generates the network-monitoring shape: one float field, a TCP
// packet size drawn from the trimodal internet mix (40-byte ACKs, a
// lognormal body, 1500-byte MTU packets) whose ACK share drifts over
// minutes, so the per-window coefficient of variation moves between
// ≈0.6 and ≈1.1 and small samples fail the 10 % mean check on part of
// the cycle. Arrivals are Poisson at ratePerSec; the block covers
// slides × slide of event time.
func DEC(seed int64, ratePerSec float64, slide time.Duration, slides int) *Block {
	rng := rand.New(rand.NewSource(seed))
	span := int64(slide) * int64(slides)
	n := int(float64(span) / float64(time.Second) * ratePerSec * 1.02)
	tuples := make([]spear.Tuple, 0, n)
	vals := make([]spear.Value, 0, n)
	for ts := expGap(rng, ratePerSec); ts < span; ts += expGap(rng, ratePerSec) {
		ack := 0.19 + 0.14*math.Sin(float64(ts)/float64(6*time.Minute))
		var size float64
		switch u := rng.Float64(); {
		case u < ack:
			size = 40
		case u < ack+0.50:
			size = math.Min(1500, math.Max(40, math.Exp(6.32+0.5*rng.NormFloat64())))
		default:
			size = 1500
		}
		vals = append(vals, spear.Float(size))
		tuples = append(tuples, spear.Tuple{Ts: ts})
	}
	// Vals are attached after the slab stops growing.
	for i := range tuples {
		tuples[i].Vals = vals[i : i+1 : i+1]
	}
	return seal(tuples, span)
}

// DEBS generates the taxi shape: (route string, fare float) at
// ratePerSec, routes mixing a 400-route hot set with a 600 K cold
// universe so a 10 K-tuple window holds ≈5 K distinct routes. When
// shuffle > 1 the arrival order is shuffled within consecutive groups
// of shuffle tuples (event timestamps unchanged), the bounded disorder
// a watermark lag of one slide must absorb.
func DEBS(seed int64, ratePerSec float64, slide time.Duration, slides, shuffle int) *Block {
	rng := rand.New(rand.NewSource(seed))
	span := int64(slide) * int64(slides)
	const (
		hotRoutes    = 400
		coldUniverse = 600_000
		hotShare     = 0.52
	)
	n := int(float64(span) / float64(time.Second) * ratePerSec * 1.02)
	tuples := make([]spear.Tuple, 0, n)
	vals := make([]spear.Value, 0, 2*n)
	for ts := expGap(rng, ratePerSec); ts < span; ts += expGap(rng, ratePerSec) {
		var route int
		if rng.Float64() < hotShare {
			route = int(float64(hotRoutes) * math.Pow(rng.Float64(), 1.5))
			if route >= hotRoutes {
				route = hotRoutes - 1
			}
		} else {
			route = hotRoutes + rng.Intn(coldUniverse)
		}
		fare := math.Exp(2.3+0.55*rng.NormFloat64()) * (1 + 0.2*math.Sin(float64(route)))
		vals = append(vals, spear.Str(routeName(route)), spear.Float(fare))
		tuples = append(tuples, spear.Tuple{Ts: ts})
	}
	for i := range tuples {
		tuples[i].Vals = vals[2*i : 2*i+2 : 2*i+2]
	}
	if shuffle > 1 {
		for lo := 0; lo < len(tuples); lo += shuffle {
			g := tuples[lo:min(lo+shuffle, len(tuples))]
			rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		}
	}
	return seal(tuples, span)
}

// routeName renders a route id as a pair of cells of a 300×300 grid.
func routeName(id int) string {
	a, b := id%90000, (id/7)%90000
	buf := make([]byte, 0, 16)
	buf = appendInt(buf, a/300)
	buf = append(buf, '.')
	buf = appendInt(buf, a%300)
	buf = append(buf, '-')
	buf = appendInt(buf, b/300)
	buf = append(buf, '.')
	return string(appendInt(buf, b%300))
}

func appendInt(b []byte, v int) []byte {
	if v >= 100 {
		b = append(b, byte('0'+v/100))
	}
	if v >= 10 {
		b = append(b, byte('0'+(v/10)%10))
	}
	return append(b, byte('0'+v%10))
}

// Ticks generates n tuples whose timestamp is their index and whose
// one float field is value(rng): the count-like streams of the ETL and
// transport workloads.
func Ticks(seed int64, n int, value func(*rand.Rand) float64) *Block {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]spear.Tuple, n)
	vals := make([]spear.Value, n)
	for i := range tuples {
		vals[i] = spear.Float(value(rng))
		tuples[i] = spear.Tuple{Ts: int64(i), Vals: vals[i : i+1 : i+1]}
	}
	return seal(tuples, int64(n))
}

// Replay is a spear.Source that replays a block for a fixed number of
// whole cycles, shifting timestamps by the block's span each cycle. With
// Rate zero it is a closed loop: the engine pulls as fast as its bounded
// queues admit. With Rate > 0 it is an open loop: tuple i is due at
// start + i/Rate and is never released early; when the engine stalls the
// source, later tuples go out late, and the lateness is recorded.
//
// The engine calls Next from one goroutine; read the recorded fields
// only after the run has returned.
type Replay struct {
	block  []spear.Tuple
	span   int64
	total  int64
	rate   float64
	onTick func(i int64)
	onMark func()
	done   bool

	i     int64
	pos   int
	shift int64

	// Start is the wall time of the first Next call.
	Start time.Time
	// Marks holds the time since Start at the first tuple of every cycle
	// and when the source ran dry: the run's progress curve, in steps of
	// identical input, from which rates over slices of the run are read.
	Marks []time.Duration
	// LagMicros holds, for every pacing check of an open-loop run, how
	// far behind schedule the source was, in microseconds (0 = on time).
	LagMicros []int32
}

// paceEvery is how many tuples go out per schedule check; one check
// costs a clock read, so checking per tuple would cap the rate.
const paceEvery = 64

// Sleep blocks the calling thread in nanosleep(2). time.Sleep parks the
// goroutine on the runtime's timers, which an otherwise idle processor
// waits for in epoll with millisecond granularity: measured on the
// reference box it wakes ≈1.1 ms late, against ≈75 µs for nanosleep.
// At a few tuples per microsecond that difference is the open loop.
func Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up is re-checked by the caller's next pacing check
}

// TickEvery is the number of tuples per OnTick call.
const TickEvery = 1 << 10

// NewReplay returns a source over b for cycles whole cycles at rate
// tuples per second (0 = saturated).
func NewReplay(b *Block, cycles int, rate float64) *Replay {
	r := &Replay{block: b.Tuples, span: b.Span, total: int64(cycles) * int64(len(b.Tuples)), rate: rate}
	if rate > 0 {
		r.LagMicros = make([]int32, 0, r.total/paceEvery+1)
	}
	return r
}

// OnTick registers fn to be called with the tuple index at every
// TickEvery-th tuple, on the engine's source goroutine.
func (r *Replay) OnTick(fn func(i int64)) { r.onTick = fn }

// OnMark registers fn to be called right after every entry of Marks is
// made, on the engine's source goroutine.
func (r *Replay) OnMark(fn func()) { r.onMark = fn }

func (r *Replay) mark() {
	r.Marks = append(r.Marks, time.Since(r.Start))
	if r.onMark != nil {
		r.onMark()
	}
}

// Total is the number of tuples the source emits.
func (r *Replay) Total() int64 { return r.total }

// Due is the scheduled release time of tuple i of an open-loop run.
func (r *Replay) Due(i int64) time.Time {
	return r.Start.Add(time.Duration(float64(i) / r.rate * float64(time.Second)))
}

// Next implements spear.Source.
func (r *Replay) Next() (spear.Tuple, bool) {
	if r.i >= r.total {
		if !r.done {
			r.done = true
			r.mark()
		}
		return spear.Tuple{}, false
	}
	if r.i == 0 {
		r.Start = time.Now()
	}
	if r.pos == 0 {
		r.mark()
	}
	if r.rate > 0 && r.i%paceEvery == 0 {
		due := r.Due(r.i)
		if wait := time.Until(due); wait > 0 {
			Sleep(wait)
		}
		// Read after the sleep, so that a late wake-up counts as lag.
		r.LagMicros = append(r.LagMicros, int32(min(time.Since(due)/time.Microsecond, math.MaxInt32)))
	}
	if r.onTick != nil && r.i%TickEvery == 0 {
		r.onTick(r.i)
	}
	t := r.block[r.pos]
	t.Ts += r.shift
	r.i++
	if r.pos++; r.pos == len(r.block) {
		r.pos, r.shift = 0, r.shift+r.span
	}
	return t, true
}

// Shape is what a workload's input looks like to a consumer that is not
// the query itself (the reference, the layer probes): the window over
// it and which fields carry the value and the grouping key.
type Shape struct {
	Range, Slide int64 // event time
	WatermarkLag int64
	ValueField   int
	KeyField     int // -1 when the workload is not grouped
}

// Workloads lists the benchmark's workload names in reporting order.
var Workloads = []string{"dec_median", "debs_grouped", "etl_columnar", "dec_mean_spill", "dec_mean_tcp"}

// Input generates the named workload's input block from seed. scale
// shrinks the block (1 = the benchmark's size; the smoke test uses less)
// but never below the few windows a run needs.
func Input(name string, seed int64, scale float64) (*Block, Shape, error) {
	slides := func(n int, sh Shape) int {
		return max(int(float64(n)*scale), int(2*sh.Range/sh.Slide))
	}
	switch name {
	case "dec_median":
		// 1044 tuples/s puts ≈47 K tuples in a 45 s window (paper Table 1).
		sh := Shape{Range: int64(45 * time.Second), Slide: int64(15 * time.Second), KeyField: -1}
		return DEC(seed, 1044, 15*time.Second, slides(64, sh)), sh, nil
	case "dec_mean_spill":
		// 133 tuples/s: ≈6 K-tuple windows, small enough that reading one
		// back from S is a few chunks, large enough that b = 150 fails the
		// mean check on most of the drift cycle.
		sh := Shape{Range: int64(45 * time.Second), Slide: int64(15 * time.Second), KeyField: -1}
		return DEC(seed, 133, 15*time.Second, slides(200, sh)), sh, nil
	case "debs_grouped":
		// 5.56 tuples/s puts ≈10 K tuples and ≈5 K routes in a 30 min window.
		sh := Shape{Range: int64(30 * time.Minute), Slide: int64(15 * time.Minute),
			WatermarkLag: int64(15 * time.Minute), ValueField: 1, KeyField: 0}
		return DEBS(seed, 5.56, 15*time.Minute, slides(60, sh), 256), sh, nil
	case "etl_columnar":
		sh := Shape{Range: 10_000, Slide: 10_000, KeyField: -1}
		n := slides(100, sh) * 10_000
		// Integral values keep every partial sum exact in float64.
		return Ticks(seed, n, func(r *rand.Rand) float64 { return float64(r.Intn(256)) }), sh, nil
	case "dec_mean_tcp":
		sh := Shape{Range: 8000, Slide: 1000, WatermarkLag: 1000, KeyField: -1}
		n := slides(500, sh) * 1000
		return Ticks(seed, n, func(r *rand.Rand) float64 { return float64(r.Intn(1024)) / 8 }), sh, nil
	}
	return nil, Shape{}, fmt.Errorf("loadgen: unknown workload %q", name)
}

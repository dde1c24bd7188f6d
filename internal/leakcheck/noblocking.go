package leakcheck

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// NoBlocking fails t when op waits. It calls op(g, i) for i < 400 000
// from each of four goroutines g under GOMAXPROCS(4), with every
// blocking event and contended mutex profiled, and reports each profile
// record the run added (the profiles are cumulative: a mutated op tested
// earlier must not fail a clean one) whose stack passes through op.
// That is a lock-free contract as far as the runtime sees one: a
// contended mutex, a parked channel operation or select, a WaitGroup or
// Cond wait. A sleep, I/O and an uncontended lock show in no profile.
func NoBlocking(t testing.TB, op func(g, i int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	runtime.GC() // starts the new Ps' mark workers: a channel wait op would pay
	defer runtime.SetMutexProfileFraction(runtime.SetMutexProfileFraction(1))
	runtime.SetBlockProfileRate(1)
	defer runtime.SetBlockProfileRate(0)

	before := waits()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400_000; i++ {
				callOp(op, g, i)
			}
		}(g)
	}
	wg.Wait()
	for text, n := range waits() {
		// A sync.Pool's first use on a P after a GC locks a global mutex
		// (pinSlow), which op's pool misses can reach under -race.
		if n > before[text] && strings.Contains(text, opFrame) && !strings.Contains(text, "\nsync.(*Pool).pinSlow\n") {
			t.Error(fmt.Sprintf("leakcheck: op blocked %d time(s) in%s", n-before[text], text))
		}
	}
}

//go:noinline
func callOp(op func(g, i int), g, i int) { op(g, i) }

// opFrame is callOp's line in a waits key: a record through it is op's.
var opFrame = "\n" + runtime.FuncForPC(reflect.ValueOf(callOp).Pointer()).Name() + "\n"

// waits reads the block and mutex profiles: events per stack, keyed by
// the functions on it, innermost first, one a line.
func waits() map[string]int64 {
	out := map[string]int64{}
	for _, read := range []func([]runtime.BlockProfileRecord) (int, bool){runtime.BlockProfile, runtime.MutexProfile} {
		var recs []runtime.BlockProfileRecord
		n, ok := read(nil)
		for !ok {
			recs = make([]runtime.BlockProfileRecord, n+64)
			n, ok = read(recs)
		}
		for _, r := range recs[:n] {
			var sb strings.Builder
			for frames, more := runtime.CallersFrames(r.Stack()), true; more; {
				var f runtime.Frame
				f, more = frames.Next()
				sb.WriteString("\n" + f.Function)
			}
			out[sb.String()+"\n"] += r.Count
		}
	}
	return out
}

// Package leakcheck fails a test when it leaks goroutines: it snapshots
// the running goroutines when Check is called and diffs against a
// second snapshot at test cleanup, retrying briefly so goroutines that
// are merely slow to wind down do not trip it.
//
// It is a dependency-free, purpose-built subset of the goleak idea,
// used to enforce the engine invariant that Topology.Run returns only
// after every goroutine it spawned has exited (the window managers are
// single-goroutine by contract, so the engine's fan-out is the one
// place leaks can originate).
//
// Usage:
//
//	func TestEngine(t *testing.T) {
//		leakcheck.Check(t)
//		// ... run topologies ...
//	}
//
// NoBlocking is the package's other check: that code documented
// lock-free never waits on another goroutine.
package leakcheck

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// defaultIgnores are frame substrings for goroutines the runtime and
// the testing harness own; their lifetime is not the test's business.
var defaultIgnores = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*T).Run(",
	"testing.(*M).",
	"testing.runFuzzing(",
	"testing.runFuzzTests(",
	"runtime.goexit",
	"runtime.gc",
	"runtime.MHeap",
	"runtime.ReadTrace",
	"runtime/trace.Start",
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime/pprof.",
	"leakcheck.snapshot", // ourselves
}

// Option customizes a Check.
type Option func(*checker)

// Ignore treats any goroutine whose stack contains substr as
// uninteresting. Use it for intentionally long-lived helpers (e.g. a
// shared latency-simulation timer).
func Ignore(substr string) Option {
	return func(c *checker) { c.ignores = append(c.ignores, substr) }
}

// Timeout sets how long the cleanup diff retries before declaring a
// leak (default 2s).
func Timeout(d time.Duration) Option {
	return func(c *checker) { c.timeout = d }
}

type checker struct {
	ignores []string
	timeout time.Duration
}

// goroutine is one parsed stanza of runtime.Stack output.
type goroutine struct {
	id    int64
	state string
	stack string // full stanza including header
}

// Check installs a leak assertion on t: goroutines alive at test end
// that were not alive at Check time (and are not ignored) fail the
// test with their stacks.
func Check(t testing.TB, opts ...Option) {
	t.Helper()
	c := &checker{
		ignores: append([]string(nil), defaultIgnores...),
		timeout: 2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	baseline := make(map[int64]bool)
	for _, g := range snapshot() {
		baseline[g.id] = true
	}
	t.Cleanup(func() {
		leaked := c.await(baseline)
		if len(leaked) == 0 {
			return
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "leakcheck: %d goroutine(s) leaked by this test:\n", len(leaked))
		for _, g := range leaked {
			fmt.Fprintf(&sb, "\n--- goroutine %d [%s] ---\n%s\n", g.id, g.state, g.stack)
		}
		t.Error(sb.String())
	})
}

// await retries the diff until it comes up empty or the timeout lapses,
// then returns the survivors.
func (c *checker) await(baseline map[int64]bool) []goroutine {
	deadline := time.Now().Add(c.timeout)
	backoff := time.Millisecond
	for {
		leaked := c.diff(baseline)
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

func (c *checker) diff(baseline map[int64]bool) []goroutine {
	var leaked []goroutine
	for _, g := range snapshot() {
		if baseline[g.id] || c.ignored(g) {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}

func (c *checker) ignored(g goroutine) bool {
	for _, sub := range c.ignores {
		if strings.Contains(g.stack, sub) {
			return true
		}
	}
	return false
}

// snapshot captures and parses all goroutine stacks except the calling
// goroutine's own.
func snapshot() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	self := currentID()
	var out []goroutine
	for _, stanza := range strings.Split(string(buf), "\n\n") {
		g, ok := parseStanza(stanza)
		if !ok || g.id == self {
			continue
		}
		out = append(out, g)
	}
	return out
}

// parseStanza parses "goroutine 42 [chan receive]:\n<frames>".
func parseStanza(s string) (goroutine, bool) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "goroutine ") {
		return goroutine{}, false
	}
	head, _, _ := strings.Cut(s, "\n")
	rest := strings.TrimPrefix(head, "goroutine ")
	idStr, state, ok := strings.Cut(rest, " ")
	if !ok {
		return goroutine{}, false
	}
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		return goroutine{}, false
	}
	state = strings.TrimSuffix(strings.TrimPrefix(state, "["), "]:")
	return goroutine{id: id, state: state, stack: s}, true
}

// currentID extracts the calling goroutine's id from a single-goroutine
// stack dump.
func currentID() int64 {
	buf := make([]byte, 256)
	n := runtime.Stack(buf, false)
	g, ok := parseStanza(string(buf[:n]))
	if !ok {
		return -1
	}
	return g.id
}

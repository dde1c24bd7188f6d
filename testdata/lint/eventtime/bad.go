// Package eventtime is a source-check fixture; the test loads it with the
// module-relative path internal/window, putting it in the event-time
// scope.
package eventtime

import "time"

// Bad: event-time code deciding anything from the wall clock.
func assignBad() int64 {
	return time.Now().UnixNano() // want "event-time package"
}

// Bad even as a bare reference: the default still reads the wall clock
// when invoked.
type mgr struct {
	now func() time.Time
}

func newMgr() *mgr {
	return &mgr{now: time.Now} // want "event-time package"
}

// Good: an injected clock is the sanctioned pattern.
func newMgrInjected(clock func() time.Time) *mgr {
	return &mgr{now: clock}
}

// Good: other uses of package time are fine (durations, conversions).
func width(d time.Duration) int64 {
	return int64(d)
}

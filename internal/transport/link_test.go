package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spear/internal/leakcheck"
	"spear/internal/obs"
	"spear/internal/spe"
	"spear/internal/tuple"
)

// collectHandler records delivered frames; an optional gate blocks
// Frame so tests can park the reader and starve the peer's credits.
type collectHandler struct {
	mu     sync.Mutex
	frames []Frame
	fatal  error
	gate   chan struct{} // nil = never block
}

func (h *collectHandler) Frame(f Frame) error {
	if h.gate != nil {
		<-h.gate
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.frames = append(h.frames, f)
	return nil
}

func (h *collectHandler) Run() ([]tuple.Tuple, []tuple.Value) { return nil, nil }

func (h *collectHandler) Fatal(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fatal == nil {
		h.fatal = err
	}
}

func (h *collectHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.frames)
}

func (h *collectHandler) seqs() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]uint64, len(h.frames))
	for i, f := range h.frames {
		out[i] = f.Seq
	}
	return out
}

// tcpPair returns both ends of one loopback TCP connection. Unlike
// net.Pipe, kernel socket buffers absorb writes, so back-pressure in
// these tests comes from the credit window — as on a real wire.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := lis.Accept()
		acc <- accepted{c, err}
	}()
	ca, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-acc
	if a.err != nil {
		t.Fatal(a.err)
	}
	return ca, a.conn
}

// linkPair wires two links over one loopback TCP connection, readers
// running, and returns them with a teardown that closes both. tobsA
// instruments the a side (nil for none).
func linkPair(t *testing.T, window int, ha, hb linkHandler, tobsA *obs.TransportObs) (*link, *link) {
	t.Helper()
	ca, cb := tcpPair(t)
	return linkPairOver(t, window, ca, cb, ha, hb, tobsA)
}

// linkPairOver is linkPair over connection ends the test supplies
// (wrapped to count or to fail).
func linkPairOver(t *testing.T, window int, ca, cb net.Conn, ha, hb linkHandler, tobsA *obs.TransportObs) (*link, *link) {
	t.Helper()
	la := newLink("a", window, ha, tobsA)
	lb := newLink("b", window, hb, nil)
	if !la.adopt(ca, 0) || !lb.adopt(cb, 0) {
		t.Fatal("adopt failed")
	}
	t.Cleanup(func() {
		la.close()
		lb.close()
	})
	return la, lb
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// appendV4Hello encodes a Hello in protocol version 4's layout, which
// also carried the job's parallelism and queue size and the dialer's
// credit window.
func appendV4Hello(h Hello) []byte {
	j := h.Job
	dst := []byte{byte(KindHello)}
	dst = tuple.AppendUvar(dst, 4)
	dst = tuple.AppendU64(dst, h.TopoHash)
	dst = tuple.AppendU64(dst, h.RunID)
	dst = tuple.AppendUvar(dst, h.Epoch)
	dst = tuple.AppendUvar(dst, uint64(j.Lo))
	dst = tuple.AppendUvar(dst, uint64(j.Hi))
	dst = tuple.AppendUvar(dst, uint64(j.Hi)) // Par
	dst = tuple.AppendUvar(dst, 1)            // Senders
	dst = tuple.AppendUvar(dst, uint64(j.BatchSize))
	dst = tuple.AppendUvar(dst, 16) // QueueSize
	dst = tuple.AppendBool(dst, j.Checkpoint)
	dst = tuple.AppendU64(dst, j.RestoreID)
	dst = tuple.AppendUvar(dst, h.Acked)
	dst = tuple.AppendUvar(dst, 256) // Window
	return dst
}

// TestHandshakeRejectsV2Peer: a Hello of an older protocol version is
// refused with a Reject naming both versions, and the shard is never
// started. That holds for version 2 (row batch frames), whose Hello
// this version's layout can still hold, and for version 4, whose Hello
// it cannot: the version is checked before the rest is decoded.
func TestHandshakeRejectsV2Peer(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis, ServerConfig{TopoHash: 1, Start: func(JobSpec, func(SnapAck) error) (*spe.ShardRun, error) {
		t.Error("an older protocol version's Hello started the shard")
		return nil, errors.New("unreachable")
	}})
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	hello := Hello{
		Version: 2, TopoHash: 1, RunID: 1, Epoch: 1,
		Job: JobSpec{Lo: 0, Hi: 1, BatchSize: 64},
	}
	for _, tc := range []struct {
		version int
		body    []byte
	}{
		{2, AppendHello(nil, hello)},
		{4, appendV4Hello(hello)},
	} {
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var reason string
		if err := WriteFrame(conn, tc.body); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		body, err := ReadFrame(conn, nil)
		if err == nil {
			var f Frame
			if f, err = DecodeFrame(body); err == nil && f.Kind != KindReject {
				err = fmt.Errorf("a %s frame", f.Kind)
			}
			reason = f.Reason
		}
		_ = conn.Close()
		if err != nil || !strings.Contains(reason, fmt.Sprintf("version %d", tc.version)) ||
			!strings.Contains(reason, fmt.Sprintf("want %d", ProtocolVersion)) {
			t.Errorf("handshake of a version %d peer: reject %q, err %v; want a Reject naming versions %d and %d",
				tc.version, reason, err, tc.version, ProtocolVersion)
		}
	}
	srv.finish(nil)
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
}

func TestLinkDeliversInOrder(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	hb := &collectHandler{}
	la, _ := linkPair(t, 0, &collectHandler{}, hb, nil)
	const n = 50
	for i := 0; i < n; i++ {
		wm := int64(i)
		if err := la.sendSeq(true, func(dst []byte, seq uint64) []byte {
			return AppendWatermark(dst, seq, 0, wm)
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all frames", func() bool { return hb.count() == n })
	for i, f := range hb.frames {
		if f.Seq != uint64(i+1) || f.WM != int64(i) {
			t.Fatalf("frame %d: seq %d wm %d", i, f.Seq, f.WM)
		}
	}
}

// TestLinkCreditBackpressure parks the receiver's handler and keeps
// sending: with credits starved the sender must plateau at the window
// bound, record the stall, and resume once the receiver drains.
func TestLinkCreditBackpressure(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	const window = 4
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(release) // a parked reader must not outlive a failed test
	hb := &collectHandler{gate: gate}
	tob := &obs.TransportObs{}
	la, _ := linkPair(t, window, &collectHandler{}, hb, tob)

	const total = 3 * window
	var sent int64
	var sentMu sync.Mutex
	count := func() int64 { sentMu.Lock(); defer sentMu.Unlock(); return sent }
	go func() {
		for i := 0; i < total; i++ {
			if err := la.sendSeq(true, func(dst []byte, seq uint64) []byte {
				return AppendGoodbye(dst, seq)
			}); err != nil {
				return
			}
			sentMu.Lock()
			sent++
			sentMu.Unlock()
		}
	}()
	// The receiver parks with one frame inside the handler (delivered
	// and credited), so completed sends plateau at window+1.
	waitFor(t, "sends up to the window", func() bool { return count() >= window })
	time.Sleep(100 * time.Millisecond)
	if n := count(); n > window+1 {
		t.Fatalf("%d sends completed with credits starved (window %d)", n, window)
	}
	if tob.CreditStalls.Load() == 0 {
		t.Error("no credit stall recorded")
	}
	release() // receiver drains; credits flow; the sender finishes
	waitFor(t, "all sends", func() bool { return count() == total })
	waitFor(t, "delivery", func() bool { return hb.count() == total })
}

// cutPipe returns a pipe end whose Write fails after n calls, without
// closing the underlying conn (the test controls both ends).
type flakyConn struct {
	net.Conn
	mu   sync.Mutex
	left int
}

func (c *flakyConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.left--
	dead := c.left < 0
	c.mu.Unlock()
	if dead {
		return 0, errors.New("flaky: write cut")
	}
	return c.Conn.Write(p)
}

// TestLinkReconnectReplaysUnacked cuts the wire mid-stream and lets
// the redial hook hand the link a fresh pipe: the unacknowledged
// suffix must be retransmitted, the receiver's duplicate filter must
// drop redeliveries, and the final delivery order must be gapless.
func TestLinkReconnectReplaysUnacked(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	hb := &collectHandler{}
	lb := newLink("b", 0, hb, nil)
	la := newLink("a", 0, &collectHandler{}, nil)

	plumb := func(cut int) net.Conn {
		ca, cb := tcpPair(t)
		var aEnd net.Conn = ca
		if cut > 0 {
			aEnd = &flakyConn{Conn: ca, left: cut}
		}
		lb.adopt(cb, lb.delivered64())
		return aEnd
	}

	redialed := make(chan struct{}, 1)
	la.redial = func(epoch uint64) (net.Conn, uint64, error) {
		redialed <- struct{}{}
		// The peer advertises what it has delivered, exactly like the
		// live handshake does.
		return plumb(0), lb.delivered64(), nil
	}

	first := plumb(3) // three writes, then the wire dies
	if !la.adopt(first, 0) {
		t.Fatal("initial adopt failed")
	}

	const n = 10
	for i := 0; i < n; i++ {
		if err := la.sendSeq(true, func(dst []byte, seq uint64) []byte {
			return AppendGoodbye(dst, seq)
		}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-redialed:
	case <-time.After(5 * time.Second):
		t.Fatal("the cut did not trigger a redial")
	}
	waitFor(t, "all frames after reconnect", func() bool { return hb.count() == n })
	for i, s := range hb.seqs() {
		if s != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d: gap or duplicate survived", i, s)
		}
	}
	la.close()
	lb.close()
}

// TestLinkRedialExhaustionIsFatal verifies a dead wire with a failing
// redial surfaces as the handler's Fatal, exactly once.
func TestLinkRedialExhaustionIsFatal(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	ha := &collectHandler{}
	la := newLink("a", 0, ha, nil)
	la.redial = func(epoch uint64) (net.Conn, uint64, error) {
		return nil, 0, fmt.Errorf("injected: no peer")
	}
	ca, cb := tcpPair(t)
	_ = cb.Close() // the wire is already dead; writes fail fast
	if !la.adopt(ca, 0) {
		t.Fatal("adopt failed")
	}
	// The reader notices the dead wire on its own; sends just hasten
	// it (the first write may still land in the local socket buffer).
	waitFor(t, "fatal", func() bool {
		_ = la.sendSeq(true, func(dst []byte, seq uint64) []byte {
			return AppendGoodbye(dst, seq)
		})
		ha.mu.Lock()
		defer ha.mu.Unlock()
		return ha.fatal != nil
	})
	if err := la.lastErr(); err == nil {
		t.Error("terminal error not latched")
	}
	if err := la.sendSeq(true, func(dst []byte, seq uint64) []byte {
		return AppendGoodbye(dst, seq)
	}); err == nil {
		t.Error("sendSeq succeeded on a dead link")
	}
	la.close()
}

// TestLinkGoodbyeEndsWithoutRedial drops the connection from the peer's
// side after the peer's Goodbye was delivered, as a shard that finished
// its run closes it: the loss is the link's orderly end, so the redial
// function is never entered and a drain does not wait for a peer that
// will not come back.
func TestLinkGoodbyeEndsWithoutRedial(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	ha := &collectHandler{}
	la := newLink("a", 0, ha, nil)
	redialed := make(chan struct{}, 1)
	la.redial = func(epoch uint64) (net.Conn, uint64, error) {
		redialed <- struct{}{}
		return nil, 0, fmt.Errorf("injected: the peer is gone")
	}
	lb := newLink("b", 0, &collectHandler{}, nil)
	ca, cb := tcpPair(t)
	if !la.adopt(ca, 0) || !lb.adopt(cb, 0) {
		t.Fatal("adopt failed")
	}
	if err := lb.sendSeq(true, func(dst []byte, seq uint64) []byte {
		return AppendGoodbye(dst, seq)
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the Goodbye", func() bool { return ha.count() == 1 })
	lb.close()
	waitFor(t, "the connection's end", func() bool { return !la.connected() })
	select {
	case <-redialed:
		t.Fatal("the link redialed a peer that had said Goodbye")
	case <-time.After(100 * time.Millisecond):
	}
	if err := la.sendSeq(false, func(dst []byte, seq uint64) []byte {
		return AppendGoodbye(dst, seq)
	}); err != nil {
		t.Fatal(err)
	}
	if start := time.Now(); la.awaitDrain(5*time.Second) || time.Since(start) > time.Second {
		t.Fatalf("awaitDrain on an ended link: %v, want false at once", time.Since(start))
	}
	la.close()
	ha.mu.Lock()
	defer ha.mu.Unlock()
	if ha.fatal != nil {
		t.Fatalf("the orderly end was reported as a failure: %v", ha.fatal)
	}
}

// TestLinkCloseFlushesCredit pins the shutdown credit flush: a link
// that delivered frames but has not credited them yet must ship the
// final cumulative credit inside close(), so a peer blocked in
// awaitDrain sees its frames acknowledged instead of timing out.
func TestLinkCloseFlushesCredit(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	// The paced credit path stays silent: five frames are short of a
	// quarter of the window, and the reader never goes idle — it is
	// parked in the handler on the fifth. The only acknowledgment can
	// come from close().
	const n = 5
	gate := make(chan struct{}, n)
	for i := 0; i < n-1; i++ {
		gate <- struct{}{}
	}
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(release)
	la, lb := linkPair(t, 64, &collectHandler{}, &collectHandler{gate: gate}, nil)
	for i := 0; i < n; i++ {
		if err := la.sendSeq(true, func(dst []byte, seq uint64) []byte {
			return AppendGoodbye(dst, seq)
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "delivery", func() bool { return lb.delivered64() == n })
	done := make(chan bool, 1)
	go func() { done <- la.awaitDrain(4 * time.Second) }()
	time.Sleep(20 * time.Millisecond) // let the drain park
	closed := make(chan struct{})
	go func() { lb.close(); close(closed) }() // returns once the parked reader is let go
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("awaitDrain timed out: close did not flush the credit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("awaitDrain never returned")
	}
	release()
	<-closed
}

// countConn counts the Read and Write calls that move data over a
// connection.
type countConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func sendWM(l *link, flush bool, wm int64) error {
	return l.sendSeq(flush, func(dst []byte, seq uint64) []byte {
		return AppendWatermark(dst, seq, 0, wm)
	})
}

// TestLinkCoalescesQueuedFrames pins the flush rule on both ends of the
// wire. Frames sent while the sender has more to give stay queued — not
// one Write reaches the connection — and the flush hands all of them to
// the connection together: over a bare TCP socket that is one vectored
// write, which the peer's buffered reader picks up in a read or two
// instead of two per frame. (A wrapper hides the socket's writev from
// net.Buffers, which then writes frame by frame; so the sending side is
// counted wrapped and the receiving side with the sender bare.)
func TestLinkCoalescesQueuedFrames(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	const n = 32

	t.Run("nothing leaves before the flush", func(t *testing.T) {
		ca, cb := tcpPair(t)
		cc := &countConn{Conn: ca}
		hb := &collectHandler{}
		la, _ := linkPairOver(t, 0, cc, cb, &collectHandler{}, hb, nil)
		for i := 0; i < n; i++ {
			if err := sendWM(la, false, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(20 * time.Millisecond)
		if w, got := cc.writes.Load(), hb.count(); w != 0 || got != 0 {
			t.Fatalf("%d writes and %d deliveries with the frames only queued", w, got)
		}
		if err := sendWM(la, true, n); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "delivery", func() bool { return hb.count() == n+1 })
	})

	t.Run("one write, a read or two", func(t *testing.T) {
		ca, cb := tcpPair(t)
		cc := &countConn{Conn: cb}
		hb := &collectHandler{}
		la, _ := linkPairOver(t, 0, ca, cc, &collectHandler{}, hb, nil)
		for i := 0; i < n; i++ {
			if err := sendWM(la, false, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sendWM(la, true, n); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "delivery", func() bool { return hb.count() == n+1 })
		if r := cc.reads.Load(); r > 2 {
			t.Errorf("%d frames took %d reads, want at most 2", n+1, r)
		}
		for i, f := range hb.frames {
			if f.Seq != uint64(i+1) || f.WM != int64(i) {
				t.Fatalf("frame %d: seq %d wm %d", i, f.Seq, f.WM)
			}
		}
	})
}

// TestLinkWindowOneMakesProgress pins flush-before-credit-wait: with a
// window of one and no sender ever asking for a flush, each frame must
// still leave before its sender waits for the credit that answers it.
func TestLinkWindowOneMakesProgress(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	hb := &collectHandler{}
	la, _ := linkPair(t, 1, &collectHandler{}, hb, nil)
	const n = 20
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := sendWM(la, false, int64(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("senders stalled: a queued frame never left, so its credit never came")
	}
	// The last frame has no successor to push it out; awaitDrain does.
	if !la.awaitDrain(4 * time.Second) {
		t.Fatal("awaitDrain timed out with a frame still queued")
	}
	// A frame is acknowledged once claimed, which may be just before
	// the handler has it.
	waitFor(t, "delivery", func() bool { return hb.count() == n })
	if got := hb.seqs(); got[n-1] != n {
		t.Fatalf("delivered %v, want 1..%d", got, n)
	}
}

// TestLinkCutMidFlushReplaysSuffix cuts the wire, through a
// FaultDialer, in the middle of one multi-frame flush: the frames
// before the cut arrived, the rest did not. The reconnect must write
// exactly the frames the peer had not delivered — counted on the second
// connection — and delivery must end up gapless and duplicate-free.
func TestLinkCutMidFlushReplaysSuffix(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	const n, cutAfter = 12, 5
	fd := &FaultDialer{CutAfterWrites: cutAfter, CutOnce: true}
	hb := &collectHandler{}
	la := newLink("a", 0, &collectHandler{}, nil)
	lb := newLink("b", 0, hb, nil)
	defer lb.close()
	defer la.close() // first, so that losing lb is not one more outage to redial

	// plumb dials through the fault dialer and attaches the accepted
	// end to lb, which advertises what it has delivered — the live
	// handshake in miniature.
	plumb := func() (net.Conn, uint64) {
		type accepted struct {
			conn net.Conn
			err  error
		}
		acc := make(chan accepted, 1)
		go func() {
			c, err := lis.Accept()
			acc <- accepted{c, err}
		}()
		ca, err := fd.Dial(lis.Addr().String())
		if err != nil {
			t.Error(err)
			return nil, 0
		}
		a := <-acc
		if a.err != nil {
			t.Error(a.err)
			return nil, 0
		}
		peerAcked := lb.delivered64()
		lb.adopt(a.conn, 0)
		return ca, peerAcked
	}

	var second *countConn
	var ackedAtRedial uint64
	redialed := make(chan struct{})
	la.redial = func(epoch uint64) (net.Conn, uint64, error) {
		if epoch > 1 {
			return nil, 0, errors.New("one outage only")
		}
		// Let the peer drain what the first connection carried, as a
		// peer that was keeping up would have (the count is checked
		// below, on the test's goroutine).
		for wait := time.Now().Add(5 * time.Second); lb.delivered64() < cutAfter && time.Now().Before(wait); {
			time.Sleep(time.Millisecond)
		}
		conn, acked := plumb()
		if conn == nil {
			return nil, 0, errors.New("plumb failed")
		}
		second, ackedAtRedial = &countConn{Conn: conn}, acked
		close(redialed)
		return second, acked, nil
	}

	first, _ := plumb()
	if !la.adopt(first, 0) {
		t.Fatal("initial adopt failed")
	}
	for i := 0; i < n-1; i++ {
		if err := sendWM(la, false, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sendWM(la, true, n-1); err != nil { // one flush, cut on its way out
		t.Fatal(err)
	}
	select {
	case <-redialed:
	case <-time.After(5 * time.Second):
		t.Fatal("the cut did not trigger a redial")
	}
	waitFor(t, "all frames after reconnect", func() bool { return hb.count() == n })
	for i, s := range hb.seqs() {
		if s != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d: gap or duplicate survived", i, s)
		}
	}
	if ackedAtRedial != cutAfter {
		t.Fatalf("peer had delivered %d frames at the reconnect, want %d", ackedAtRedial, cutAfter)
	}
	if w := second.writes.Load(); w != n-cutAfter {
		t.Errorf("reconnect wrote %d frames, want the %d unacknowledged ones", w, n-cutAfter)
	}
}

// TestLinkControlFramesNeverWait pins that a control frame is not held
// behind queued data: whatever kind it is, it leaves at once and takes
// the data queued before it along, in order.
func TestLinkControlFramesNeverWait(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	controls := map[Kind]func(dst []byte, seq uint64) []byte{
		KindWatermark: func(dst []byte, seq uint64) []byte { return AppendWatermark(dst, seq, 0, 7) },
		KindBarrier:   func(dst []byte, seq uint64) []byte { return AppendBarrier(dst, seq, 0, 7) },
		KindEnd:       func(dst []byte, seq uint64) []byte { return AppendEnd(dst, seq, 0) },
		KindGoodbye:   AppendGoodbye,
	}
	run := []tuple.Tuple{tuple.New(1, tuple.Float(1))}
	for kind, enc := range controls {
		t.Run(kind.String(), func(t *testing.T) {
			hb := &collectHandler{}
			la, _ := linkPair(t, 0, &collectHandler{}, hb, nil)
			const data = 3
			for i := 0; i < data; i++ {
				if err := la.sendSeq(false, func(dst []byte, seq uint64) []byte {
					return AppendBatch(dst, seq, 0, 0, run)
				}); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(10 * time.Millisecond)
			if got := hb.count(); got != 0 {
				t.Fatalf("%d data frames left unasked", got)
			}
			if err := la.sendSeq(true, enc); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the control frame and the data before it", func() bool { return hb.count() == data+1 })
			hb.mu.Lock()
			defer hb.mu.Unlock()
			for i, f := range hb.frames {
				want := KindBatch
				if i == data {
					want = kind
				}
				if f.Seq != uint64(i+1) || f.Kind != want {
					t.Fatalf("frame %d: seq %d kind %s, want %s", i, f.Seq, f.Kind, want)
				}
			}
		})
	}
}

// TestLinkConcurrentSenders drives one link from several goroutines at
// once, as a node's outbox pumps do, through a window small enough that
// they keep meeting at the write side: a flush request that finds
// another sender writing must be carried out by that writer, so every
// frame arrives, in sequence order, each sender's own frames in the
// order it sent them.
func TestLinkConcurrentSenders(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	hb := &collectHandler{}
	la, _ := linkPair(t, 8, &collectHandler{}, hb, nil)
	const senders, each = 4, 300
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Mostly queued, flushed now and then and at the end.
				flush := i%7 == 0 || i == each-1
				if err := la.sendSeq(flush, func(dst []byte, seq uint64) []byte {
					return AppendWatermark(dst, seq, 0, int64(s*each+i))
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	waitFor(t, "delivery", func() bool { return hb.count() == senders*each })
	next := make([]int64, senders)
	hb.mu.Lock()
	defer hb.mu.Unlock()
	for i, f := range hb.frames {
		if f.Seq != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d", i, f.Seq)
		}
		s, i := f.WM/each, f.WM%each // the goroutine and its frame
		if i != next[s] {
			t.Fatalf("sender %d: frame %d arrived where %d was due", s, i, next[s])
		}
		next[s]++
	}
}

// discardHandler drops what it is handed, decoding each batch frame into
// one reused run and the slab the frame before it was decoded into, as
// a shard's pool does for a manager that keeps no row.
type discardHandler struct {
	run    []tuple.Tuple
	slab   []tuple.Value
	frames atomic.Int64
	marks  map[int64]chan struct{} // closed when that many frames are in
}

func (h *discardHandler) Frame(f Frame) error {
	h.slab = f.slab
	if mark, ok := h.marks[h.frames.Add(1)]; ok {
		close(mark)
	}
	return nil
}

func (h *discardHandler) Run() ([]tuple.Tuple, []tuple.Value) { return h.run[:0], h.slab }

func (h *discardHandler) Fatal(error) {}

// TestLinkRecyclesFramesAckedMidWrite: a frame the peer acknowledges
// while the write pass that carries it is still in flight stays off the
// free list until that pass returns, and goes on it then.
func TestLinkRecyclesFramesAckedMidWrite(t *testing.T) {
	ca, cb := net.Pipe() // a write returns once the peer has read it all
	l := newLink("a", 8, &collectHandler{}, nil)
	if !l.adopt(ca, 0) {
		t.Fatal("adopt failed")
	}
	t.Cleanup(func() {
		_ = cb.Close()
		l.close()
	})
	lists := func() (held, free int) {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.held), len(l.free)
	}
	sent := make(chan error, 1)
	go func() {
		sent <- l.sendSeq(true, func(dst []byte, seq uint64) []byte {
			return AppendBatch(dst, seq, 0, 0, []tuple.Tuple{tuple.New(1, tuple.Float(1))})
		})
	}()
	waitFor(t, "the write pass", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.writing
	})
	l.onAck(1)
	if held, free := lists(); held != 1 || free != 0 {
		t.Fatalf("acknowledged mid-write: %d held, %d free; want 1, 0", held, free)
	}
	go func() { _, _ = io.Copy(io.Discard, cb) }()
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if held, free := lists(); held != 0 || free != 1 {
		t.Fatalf("after the pass: %d held, %d free; want 0, 1", held, free)
	}
}

// TestLinkBatchFrameAllocs gates what a 64-tuple batch frame costs the
// link, both ends counted — sendSeq, the write pass, the reader, the
// decode into a recycled run and slab, the credits coming back: at most
// half an allocation a frame in the steady state (it reads 0–0.05). A
// value slab made per frame reads 1.00, and a frame buffer made per
// send, where the free list of acknowledged ones should serve it, 7.
// Frames acknowledged before their write pass returned, left to the
// collector instead of held for the pass, read up to 0.57 under -race.
func TestLinkBatchFrameAllocs(t *testing.T) {
	const warm, measured = 1000, 4000
	rows := make([]tuple.Tuple, 64)
	for i := range rows {
		rows[i] = tuple.New(int64(1_000+i), tuple.Float(float64(i)))
	}
	warmed, done := make(chan struct{}), make(chan struct{})
	hb := &discardHandler{
		run:   make([]tuple.Tuple, 0, len(rows)),
		marks: map[int64]chan struct{}{warm: warmed, warm + measured: done},
	}
	la, _ := linkPair(t, 0, &collectHandler{}, hb, nil)
	send := func(n int) {
		for i := 0; i < n; i++ {
			// Flushed every 16 frames, as a busy outbox's pump does.
			if err := la.sendSeq(i%16 == 15 || i == n-1, func(dst []byte, seq uint64) []byte {
				return AppendBatch(dst, seq, 0, 0, rows)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(warm)
	<-warmed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(measured)
	<-done
	runtime.ReadMemStats(&after)
	perFrame := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.2f allocs/frame", perFrame)
	if perFrame > 0.5 {
		t.Errorf("%.2f allocations per 64-tuple batch frame, want at most 0.5", perFrame)
	}
}

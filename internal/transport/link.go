package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"spear/internal/obs"
	"spear/internal/tuple"
)

// The sliding-window protocol's constants and the dialer's capped
// reconnect backoff. Both ends of a link grant creditWindow frames.
const (
	creditWindow    = 256
	defaultRedials  = 6
	defaultBackoff  = 50 * time.Millisecond
	backoffMax      = 2 * time.Second
	dialTimeout     = 5 * time.Second
	helloTimeout    = 5 * time.Second // a handshake's bound, each side
	drainTimeout    = 5 * time.Second // the wait for the last credits after Goodbye
	defaultPeerWait = 15 * time.Second
)

// flushBytes is how much a link queues before it writes unasked, and
// the size of a reader's buffer: one write, and one read, carry up to
// this much.
const flushBytes = 64 << 10

// Dialer abstracts connection establishment so tests can inject
// faults (refused dials, connections cut mid-stream, duplicated
// connections) without a real network failure.
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

// NetDialer dials TCP, giving up after dialTimeout.
type NetDialer struct{}

// Dial implements Dialer.
func (NetDialer) Dial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, dialTimeout)
}

// linkHandler receives the link's inbound payload frames, on the
// reader goroutine. Blocking in Frame is the intended back-pressure:
// a full engine queue stops the socket read, the peer's credits dry
// up, and the peer's senders block.
type linkHandler interface {
	// Frame delivers one deduplicated, in-order sequenced frame.
	Frame(f Frame) error
	// Run returns the empty slice the next batch frame's tuples decode
	// into and the slab their values are carved from (a run and a slab
	// of the shard's pool); nil allocates either.
	Run() ([]tuple.Tuple, []tuple.Value)
	// Fatal reports the link's terminal failure (redials exhausted,
	// protocol violation, peer reject). Called at most once.
	Fatal(err error)
}

// link is one reliable duplex connection between the source and a
// shard node. Both directions run the same sliding-window protocol:
// sequenced frames are retained until the peer's cumulative credit
// acknowledges them, the retention bound is the credit window (so a
// slow receiver blocks the sender — back-pressure), and on reconnect
// the unacknowledged suffix beyond the peer's delivered sequence is
// retransmitted in order.
//
// A retained frame is its wire image (length prefix and body in one
// recycled buffer), so sending and resending are the same thing:
// putting the images beyond sent on the connection, as many as there
// are in one vectored write. Frames queue until someone asks for a
// flush — a sender whose input ran dry, a control frame, flushBytes
// pending, a sender about to wait — so a busy link pays one write for
// many frames and an idle one holds nothing back.
//
// Locking: mu guards all bookkeeping and is never held across socket
// I/O. The write side of the socket belongs to one goroutine at a time
// (writing): a flush request that finds it taken leaves a note (again)
// and returns, and the writer makes another pass before it lets go, so
// frame order on the wire is queue order and nobody waits for a write
// holding mu. The reader goroutine never writes — credits go through
// an async one-slot sender — which breaks the four-party deadlock
// where both peers' writers sit on full TCP buffers waiting for
// readers that are waiting to write.
type link struct {
	name    string // peer label for errors and telemetry
	handler linkHandler
	tobs    *obs.TransportObs

	mu   sync.Mutex
	cond *sync.Cond
	conn net.Conn
	gen  int // bumps on every adopted conn; stale readers exit

	closed  bool           // orderly shutdown: reader exit is not an error
	bye     bool           // the peer's Goodbye was delivered: a lost conn is the orderly end
	err     error          // terminal failure, latched once
	readers sync.WaitGroup // live reader goroutines; close() waits them out
	rmu     sync.Mutex     // held by the one reader that may call the handler

	// Send direction. unacked[i] is the wire image of frame acked+1+i,
	// so len(unacked) == nextSeq-acked; the images beyond sent are owed
	// to the current connection.
	nextSeq uint64 // last assigned sequence number
	acked   uint64 // peer-confirmed cumulative sequence
	sent    uint64 // last sequence whose write to conn has returned
	window  int
	unacked [][]byte
	queued  int      // wire bytes queued since a write pass last began
	free    [][]byte // acknowledged images awaiting reuse, at most window
	held    [][]byte // acknowledged images a write pass may still be reading

	// Write side, owned by whoever set writing.
	writing   bool
	again     bool        // a flush was requested while writing
	wv        net.Buffers // the pass in flight, backed by iov
	iov       [][]byte
	creditBuf []byte // wire image of the credit frame in flight
	unseq     []byte // wire image of a best-effort unsequenced frame

	// Receive direction.
	delivered   uint64        // last in-order sequence handed to the handler
	credited    uint64        // last sequence a credit frame carried
	creditEvery int           // delivered-but-uncredited frames that force a credit
	creditKick  chan struct{} // one-slot wakeup for the credit sender

	// Dialer side only: reconnect machinery. redial performs
	// dial + handshake for the given epoch and returns the new conn
	// and the peer's delivered sequence.
	redial func(epoch uint64) (net.Conn, uint64, error)
	epoch  uint64
}

func newLink(name string, window int, h linkHandler, tobs *obs.TransportObs) *link {
	if window <= 0 {
		window = creditWindow
	}
	l := &link{
		name: name, handler: h, tobs: tobs,
		window: window, creditEvery: max(window/4, 1),
		creditBuf:  make([]byte, frameHdr, 16),
		creditKick: make(chan struct{}, 1),
	}
	l.cond = sync.NewCond(&l.mu)
	go l.creditLoop()
	return l
}

// sendSeq assigns the next sequence number, has enc append the frame's
// body behind the length prefix of a recycled buffer, and queues that
// wire image, retained until the peer acknowledges it. flush (or
// flushBytes queued) puts everything queued on the wire before
// returning. It blocks while the peer's credit window is exhausted —
// this is the transport's back-pressure. With the connection down the
// frame is parked in the retention buffer and delivered by the
// reconnect retransmit.
func (l *link) sendSeq(flush bool, enc func(dst []byte, seq uint64) []byte) error {
	l.mu.Lock()
	for l.err == nil && !l.closed && l.nextSeq-l.acked >= uint64(l.window) {
		// The credits this sender is about to wait for answer frames
		// that may still be queued here.
		if l.flushLocked() {
			continue
		}
		if l.tobs != nil {
			l.tobs.CreditStalls.Add(1)
		}
		l.cond.Wait()
	}
	if l.err != nil || l.closed {
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("transport: link %s closed", l.name)
		}
		return err
	}
	wire := sealFrame(enc(l.frameBufLocked(), l.nextSeq+1))
	if n := len(wire) - frameHdr; n == 0 || n > MaxFrame {
		// The peer would refuse this frame, and refuse it again on
		// every replay: no sequence number is spent on it.
		l.mu.Unlock()
		err := fmt.Errorf("%w: link %s: body of %d bytes", ErrFrame, l.name, n)
		l.fatal(err)
		return err
	}
	l.nextSeq++
	l.unacked = append(l.unacked, wire)
	l.queued += len(wire)
	if flush || l.queued >= flushBytes {
		l.flushLocked()
	}
	l.mu.Unlock()
	return nil
}

// frameBufLocked returns an empty frame buffer, length prefix reserved:
// a recycled one when the free list has any.
func (l *link) frameBufLocked() []byte {
	if n := len(l.free); n > 0 {
		buf := l.free[n-1]
		l.free = l.free[:n-1]
		return buf[:frameHdr]
	}
	return make([]byte, frameHdr, 2<<10)
}

// sealFrame fills in the length prefix of a wire image whose body has
// been appended behind the room frameBufLocked left for it.
func sealFrame(wire []byte) []byte {
	binary.LittleEndian.PutUint32(wire, uint32(len(wire)-frameHdr))
	return wire
}

// flushLocked puts everything the link owes the wire — queued frames, a
// due credit — on the connection, unless another goroutine is already
// writing, which then does it on its next pass. Callers hold mu; it is
// released around each write, and the result says whether that
// happened, so callers know to look at their state again.
func (l *link) flushLocked() bool {
	if l.writing {
		l.again = true
		return false
	}
	l.writing = true
	wrote := false
	for l.writePassLocked() {
		wrote = true
		if !l.again {
			break
		}
	}
	l.writing = false
	if l.closed {
		l.cond.Broadcast() // close() is waiting for the write side
	}
	return wrote
}

// writePassLocked is one pass of the writer: it gathers what is owed
// and writes it in one vectored call, mu released meanwhile. It reports
// whether there was anything to write.
func (l *link) writePassLocked() bool {
	conn := l.conn
	if conn == nil {
		return false
	}
	iov := l.iov[:0]
	if l.unseq != nil {
		iov = append(iov, l.unseq)
		l.unseq = nil
	}
	if l.delivered > l.credited {
		// Whatever is delivered and uncredited rides along: the reader
		// paces when a write is asked for on a credit's account, and
		// one that happens anyway carries it for a few bytes.
		l.credited = l.delivered
		l.creditBuf = sealFrame(AppendCredit(l.creditBuf[:frameHdr], l.credited))
		iov = append(iov, l.creditBuf)
	}
	iov = append(iov, l.unacked[l.sent-l.acked:]...)
	l.iov = iov
	if len(iov) == 0 {
		return false
	}
	upTo := l.nextSeq
	l.again, l.queued = false, 0
	var bytes int64
	if l.tobs != nil {
		for _, b := range iov {
			bytes += int64(len(b))
		}
	}
	l.wv = iov
	l.mu.Unlock()
	_, err := l.wv.WriteTo(conn)
	l.mu.Lock()
	// No pass reads the images acknowledged while this one wrote.
	for _, buf := range l.held {
		l.recycleLocked(buf)
	}
	clear(l.held)
	l.held = l.held[:0]
	switch {
	case err != nil:
		l.connLostLocked(conn, err)
	case l.conn == conn:
		// sent speaks of the current connection only: adopt already
		// rewound it if the connection changed under this pass.
		l.sent = upTo
		if l.tobs != nil {
			l.tobs.TxFrames.Add(int64(len(iov)))
			l.tobs.TxBytes.Add(bytes)
		}
	}
	return true
}

// creditLoop ships cumulative acknowledgments asynchronously: the
// reader kicks, this goroutine flushes — the credit leaves with the
// newest value, alongside any queued frames, or with the pass of
// whoever is writing. Credits are cumulative, so skipped
// intermediate values cost nothing, and the reader never blocks on a
// write.
func (l *link) creditLoop() {
	for range l.creditKick {
		l.mu.Lock()
		if l.closed || l.err != nil {
			l.mu.Unlock()
			return
		}
		l.flushLocked()
		l.mu.Unlock()
	}
}

// kickCredit wakes the credit sender (coalescing: one pending kick is
// enough, the sender reads the latest value).
func (l *link) kickCredit() {
	select {
	case l.creditKick <- struct{}{}:
	default:
	}
}

// sendUnseq writes one unsequenced frame (a reject, advisory only):
// best-effort, silently dropped when the connection is down.
func (l *link) sendUnseq(body []byte) {
	l.mu.Lock()
	if l.conn != nil {
		l.unseq = sealFrame(append(make([]byte, frameHdr, frameHdr+len(body)), body...))
		l.flushLocked()
	}
	l.mu.Unlock()
}

// connected reports whether a live connection is adopted.
func (l *link) connected() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn != nil
}

// connLost drops conn if it is still current. The dialer side spawns
// a redial unless the peer has said Goodbye; the listener side waits
// for the peer to dial back (the server's accept loop adopts the new
// conn).
func (l *link) connLost(conn net.Conn, cause error) {
	l.mu.Lock()
	l.connLostLocked(conn, cause)
	l.mu.Unlock()
}

func (l *link) connLostLocked(conn net.Conn, cause error) {
	if l.conn != conn || conn == nil || l.closed || l.err != nil {
		return
	}
	_ = conn.Close()
	l.conn = nil
	l.gen++
	l.cond.Broadcast()
	if l.redial != nil && !l.bye {
		go l.redialLoop(cause) // starts by taking mu, so after the caller lets go
	}
}

// redialLoop re-establishes the connection via the injected redial
// function (dial + handshake, returning the peer's delivered
// sequence). The redial function owns backoff and attempt caps; when
// it gives up, its error becomes the link's terminal failure.
func (l *link) redialLoop(cause error) {
	l.mu.Lock()
	if l.closed || l.err != nil || l.conn != nil {
		l.mu.Unlock()
		return
	}
	l.epoch++
	epoch := l.epoch
	l.mu.Unlock()

	conn, peerAcked, err := l.redial(epoch)
	if err != nil {
		l.fatal(fmt.Errorf("transport: link %s: reconnect after %q: %w", l.name, cause, err))
		return
	}
	if l.tobs != nil {
		l.tobs.Reconnects.Add(1)
	}
	l.adopt(conn, peerAcked)
}

// adopt installs a fresh connection and starts its reader: it prunes
// the frames the peer has delivered, retransmits the rest in order,
// and wakes writers. It reports false, closing conn, if the link is
// already down.
func (l *link) adopt(conn net.Conn, peerAcked uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.err != nil {
		_ = conn.Close()
		return false
	}
	if l.conn != nil {
		// A duplicate connection raced in; newest wins, the old
		// reader exits on the closed conn with a stale gen.
		_ = l.conn.Close()
	}
	l.conn = conn
	l.gen++
	// Registered under mu, where close() latches closed before it
	// waits; and reading before the retransmit is written, so two
	// peers replaying full windows at each other both drain.
	l.readers.Add(1)
	go l.readLoop(conn, l.gen)
	l.onAckLocked(peerAcked)
	// Nothing retained has been written to this connection: the
	// retransmit is an ordinary flush, and new sendSeq calls queue
	// behind it.
	l.sent = l.acked
	l.flushLocked()
	l.cond.Broadcast()
	return true
}

func (l *link) onAck(acked uint64) {
	l.mu.Lock()
	l.onAckLocked(acked)
	l.mu.Unlock()
}

// onAckLocked drops retained frames up to acked, recycles their
// buffers, and wakes writers blocked on the window.
func (l *link) onAckLocked(acked uint64) {
	if acked > l.nextSeq {
		acked = l.nextSeq
	}
	if acked <= l.acked {
		return
	}
	n := int(acked - l.acked)
	for i, buf := range l.unacked[:n] {
		// A frame acknowledged before its write returned (a fast peer,
		// or one that got it on an earlier connection) may still be
		// under the writer's eyes: it waits in held for the pass to end.
		if l.acked+uint64(i) < l.sent {
			l.recycleLocked(buf)
		} else {
			l.held = append(l.held, buf)
		}
	}
	l.unacked = append(l.unacked[:0], l.unacked[n:]...)
	l.acked = acked
	if l.sent < acked {
		l.sent = acked
	}
	l.cond.Broadcast()
}

// recycleLocked puts an acknowledged image that no write pass reads on
// the free list, which keeps at most window images of at most
// flushBytes.
func (l *link) recycleLocked(buf []byte) {
	if cap(buf) <= flushBytes && len(l.free) < l.window {
		l.free = append(l.free, buf)
	}
}

// readLoop is the frame-dispatch loop of the adopted conn of
// generation gen. It parses frames out of a buffered reader, so a
// backlog of frames costs one read, and exits when the conn is
// replaced, closed, or fails; sequenced frames are deduplicated and
// gap-checked before the handler sees them. Readers take turns (rmu):
// the handler must see frames in sequence order, so the reader of a
// replaced connection gets to finish the frame it is delivering before
// this one delivers the next. Acknowledgment is paced: a credit goes out
// once creditEvery delivered frames are uncredited, and whenever the
// loop is about to wait for the socket with frames still uncredited —
// so an idle link has acknowledged everything it delivered.
func (l *link) readLoop(conn net.Conn, gen int) {
	defer l.readers.Done()
	l.rmu.Lock()
	defer l.rmu.Unlock()
	br := bufio.NewReaderSize(conn, flushBytes)
	buf := make([]byte, 0, 4<<10)
	run := l.handler.Run
	for {
		if br.Buffered() == 0 {
			l.requestCredit()
		}
		body, err := ReadFrame(br, buf)
		if err != nil {
			l.connLost(conn, err) // a no-op on a replaced or closed conn
			return
		}
		buf = body[:0]
		if l.tobs != nil {
			l.tobs.RxFrames.Add(1)
			l.tobs.RxBytes.Add(int64(len(body)) + frameHdr)
		}
		f, err := decodeFrame(body, run)
		if err != nil {
			l.fatal(fmt.Errorf("transport: link %s: %w", l.name, err))
			return
		}
		switch {
		case f.Kind == KindCredit:
			l.onAck(f.Acked)
		case f.Kind == KindReject:
			l.fatal(fmt.Errorf("transport: link %s: peer rejected: %s", l.name, f.Reason))
			return
		case sequenced(f.Kind):
			next, err := l.claim(f.Seq, f.Kind, gen)
			if err == nil && next {
				// The handler may block (engine back-pressure); the
				// async credit path keeps acknowledgments flowing for
				// frames already delivered.
				err = l.handler.Frame(f)
			}
			if err != nil {
				l.fatal(fmt.Errorf("transport: link %s: %w", l.name, err))
				return
			}
		default:
			l.fatal(fmt.Errorf("transport: link %s: unexpected %s frame", l.name, f.Kind))
			return
		}
	}
}

// claim takes sequenced frame seq, of kind k, for delivery if it is the
// next in order. It declines a redelivery after a reconnect (already
// handled) and anything still buffered in the reader of a replaced
// connection, whose successor gets those frames replayed; a gap is an
// error.
func (l *link) claim(seq uint64, k Kind, gen int) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != gen || seq <= l.delivered {
		return false, nil
	}
	if seq != l.delivered+1 {
		return false, fmt.Errorf("sequence gap: got %d after %d", seq, l.delivered)
	}
	l.delivered = seq
	l.bye = l.bye || k == KindGoodbye
	if l.delivered-l.credited >= uint64(l.creditEvery) {
		l.kickCredit()
	}
	return true, nil
}

// requestCredit has everything delivered acknowledged; the reader calls
// it when it is about to wait for the socket.
func (l *link) requestCredit() {
	l.mu.Lock()
	if l.delivered > l.credited {
		l.kickCredit()
	}
	l.mu.Unlock()
}

// fatal latches the link's terminal error, closes the conn, wakes
// every waiter, and notifies the handler exactly once.
func (l *link) fatal(err error) {
	l.mu.Lock()
	if l.closed || l.err != nil {
		l.mu.Unlock()
		return
	}
	l.err = err
	if l.conn != nil {
		_ = l.conn.Close()
		l.conn = nil
	}
	l.gen++
	l.cond.Broadcast()
	l.mu.Unlock()
	l.kickCredit() // unblock the credit sender so it can exit
	l.handler.Fatal(err)
}

// awaitDrain blocks until the peer has acknowledged every sent frame,
// the timeout passes, or the link dies or ends (the conn lost after the
// peer's Goodbye). It reports whether the drain completed.
func (l *link) awaitDrain(timeout time.Duration) bool {
	var timedOut bool
	t := time.AfterFunc(timeout, func() {
		l.mu.Lock()
		timedOut = true
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer t.Stop()
	l.mu.Lock()
	l.flushLocked()
	for l.err == nil && !l.closed && (l.conn != nil || !l.bye) && len(l.unacked) > 0 && !timedOut {
		l.cond.Wait()
	}
	ok := len(l.unacked) == 0
	l.mu.Unlock()
	return ok
}

// close shuts the link down in an orderly way: no reconnects, reader
// and credit sender exit silently, writers fail with a closed error.
// What is still owed leaves first — above all an outstanding credit:
// the peer may be in awaitDrain waiting for exactly that
// acknowledgment, and the async credit sender loses the race against
// the conn teardown.
func (l *link) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.cond.Broadcast()
	for l.writing {
		l.cond.Wait()
	}
	l.flushLocked()
	conn := l.conn
	l.conn = nil
	l.gen++
	l.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	l.kickCredit()
	// The conn is closed and closed is latched, so any reader exits on
	// its next ReadFrame or stale-generation check; a reader parked in
	// the handler returns once the engine side unwinds (the handler
	// never calls close on its own link).
	l.readers.Wait()
}

// lastErr returns the latched terminal error, if any.
func (l *link) lastErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// down reports whether the link has closed or failed.
func (l *link) down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed || l.err != nil
}

// delivered64 returns the last in-order sequence delivered to the
// handler (the value handshakes advertise).
func (l *link) delivered64() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.delivered
}

// backoffFor returns the exponential backoff for attempt n (0-based),
// capped at backoffMax.
func backoffFor(n int, base time.Duration) time.Duration {
	if base <= 0 {
		base = defaultBackoff
	}
	d := base << uint(n)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	return d
}

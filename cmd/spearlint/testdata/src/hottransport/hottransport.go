// Package hottransport is a spearlint fixture mirroring the transport
// shuffle's frame path: pump drains a worker outbox onto the link,
// sendSeq queues one frame per call and readLoop dispatches one per
// iteration. The analyzer must flag inline dials and per-frame
// allocation churn on that path — a slice made per frame, a buffer grown
// from nil per frame — including inside the package functions the
// encode closures reach, while the redial goroutine (behind a `go`
// statement) may dial freely, a free list may allocate when it is
// empty, and code the path never reaches stays quiet.
package hottransport

import (
	"net"
	"time"
)

// message stands in for the fabric's transfer unit.
type message struct {
	V      int
	Sender int
}

// link mimics the transport link: sendSeq and readLoop are frame-path
// roots.
type link struct {
	addr string
	conn net.Conn
	free [][]byte
}

// sendSeq writes one frame. The lazy dial here is the regression the
// check exists for: a connect on the send path stalls every frame
// queued behind the write lock.
func (l *link) sendSeq(enc func(dst []byte, seq uint64) []byte) error {
	if l.conn == nil {
		c, err := net.Dial("tcp", l.addr) // want "net.Dial on the transport send path"
		if err != nil {
			return err
		}
		l.conn = c
	}
	// sendSeq runs once per frame, so its whole body is hot: growing
	// the frame from nil allocates (and regrows) every time.
	body := enc(nil, 1) // want "grown from nil per frame"
	if _, err := l.conn.Write(body); err != nil {
		l.onLost()
		return err
	}
	// The recycled form: quiet, and so is frameBuf's allocation on an
	// empty free list — it sits in no loop.
	body = enc(l.frameBuf(), 2)
	_, err := l.conn.Write(body)
	l.free = append(l.free, body)
	return err
}

// frameBuf pops a recycled buffer, or makes one when there is none.
func (l *link) frameBuf() []byte {
	if n := len(l.free); n > 0 {
		buf := l.free[n-1]
		l.free = l.free[:n-1]
		return buf[:0]
	}
	return make([]byte, 0, 2048)
}

// readLoop dispatches inbound frames; its loop runs once per frame.
func (l *link) readLoop() {
	scratch := make([]byte, 0, 4096) // per connection: quiet
	for {
		hdr := make([]byte, 4) // want "slice allocation (make) per frame"
		if _, err := l.conn.Read(hdr); err != nil {
			return
		}
		scratch = append(scratch[:0], hdr...)
		ack := appendCredit(nil, uint64(len(scratch))) // want "grown from nil per frame"
		_, _ = l.conn.Write(ack)
		copied := append([]byte(nil), scratch...) // want "grown from nil per frame"
		_ = copied
	}
}

// appendCredit encodes an acknowledgment; append-shaped by name.
func appendCredit(dst []byte, acked uint64) []byte {
	return append(dst, byte(acked))
}

// node mimics the fabric's per-peer state; pump is a send-path root.
type node struct{ lk *link }

// pump drains the outbox; its batch loop runs at full shuffle rate.
func (n *node) pump(out <-chan []message) {
	for batch := range out {
		_ = time.Now()                     // want "time.Now"
		vals := make([]int, 0, len(batch)) // want "slice allocation (make) per frame"
		_ = vals
		for i := range batch {
			_ = n.lk.sendSeq(func(dst []byte, seq uint64) []byte {
				// The closure runs synchronously inside sendSeq, so
				// appendBatch below is on the send path too.
				return appendBatch(dst, seq, batch[i:i+1])
			})
		}
	}
}

// appendBatch encodes a run of tuples; reached from pump through the
// encode closure, so its per-tuple loop is hot.
func appendBatch(dst []byte, seq uint64, msgs []message) []byte {
	dst = append(dst, byte(seq))
	for _, m := range msgs {
		meta := map[string]int{"v": m.V} // want "map literal"
		_ = meta
		dst = append(dst, byte(m.V), byte(m.Sender))
	}
	return dst
}

// onLost hands reconnection to the redial goroutine: the `go` subtree
// is exempt, so the dial inside redial is the sanctioned design.
func (l *link) onLost() {
	go l.redial()
}

// redial dials on its own goroutine, out of the send path's
// synchronous reach: no finding.
func (l *link) redial() {
	c, err := net.DialTimeout("tcp", l.addr, time.Second)
	if err == nil {
		l.conn = c
	}
}

// coldDial is never reached from pump or sendSeq: quiet, loop and all.
func coldDial(addrs []string) net.Conn {
	for _, a := range addrs {
		if c, err := net.Dial("tcp", a); err == nil {
			return c
		}
	}
	return nil
}

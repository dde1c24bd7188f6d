package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"spear/internal/obs"
	"spear/internal/spe"
	"spear/internal/tuple"
)

// ServerConfig configures one shard node's serving side.
type ServerConfig struct {
	// TopoHash must match the dialer's or the handshake is rejected:
	// both processes must be built from the same query definition.
	TopoHash uint64
	// PeerWait bounds how long the node keeps a wounded run alive
	// waiting for the source to reconnect; on expiry the run fails.
	PeerWait time.Duration
	// Start builds the shard when the first valid Hello arrives. ack
	// sends a checkpoint acknowledgment frame back to the coordinator;
	// the shard's snapshot hook calls it after persisting its blob.
	Start func(spec JobSpec, ack func(SnapAck) error) (*spe.ShardRun, error)
	// Obs, when non-nil, receives the link's wire counters.
	Obs *obs.TransportObs
}

// Server runs one shard node: it accepts the source's connection,
// starts the shard the Hello describes, feeds decoded frames into the
// shard's workers, and streams results back. One Server hosts one run;
// reconnects re-attach to the same shard.
type Server struct {
	lis net.Listener
	cfg ServerConfig

	mu       sync.Mutex
	lk       *link
	run      *spe.ShardRun
	spec     JobSpec
	runID    uint64
	epoch    uint64
	inClosed []bool
	failing  bool
	finished bool

	// abort wakes a deliver parked on a full worker queue when the run
	// fails; delivering counts parked/in-flight sends so Fatal can wait
	// them out before closing the input channels.
	abort      chan struct{}
	delivering sync.WaitGroup

	done    chan struct{}
	doneErr error
	once    sync.Once
}

// NewServer wraps lis; Serve runs the node.
func NewServer(lis net.Listener, cfg ServerConfig) *Server {
	if cfg.PeerWait <= 0 {
		cfg.PeerWait = defaultPeerWait
	}
	return &Server{lis: lis, cfg: cfg, abort: make(chan struct{}), done: make(chan struct{})}
}

// Serve accepts connections until the shard's run completes (all
// workers drained and results acknowledged) or fails, and returns the
// run's error. It owns the listener and closes it on return.
func (s *Server) Serve() error {
	go s.acceptLoop()
	<-s.done
	_ = s.lis.Close()
	s.mu.Lock()
	lk := s.lk
	s.mu.Unlock()
	if lk != nil {
		lk.close()
	}
	return s.doneErr
}

func (s *Server) finish(err error) {
	s.once.Do(func() {
		s.mu.Lock()
		s.finished = true
		s.mu.Unlock()
		s.doneErr = err
		close(s.done)
	})
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.done:
			default:
				s.finish(fmt.Errorf("transport: accept: %w", err))
			}
			return
		}
		go s.handshake(conn)
	}
}

// handshake reads and validates one connection's Hello. Connections
// that die or stay silent for helloTimeout before a valid Hello are
// dropped without touching the run — a duplicated or probed dial is
// indistinguishable from them. A Hello of another protocol version is
// refused by name before the rest of it is decoded: its layout may
// differ from this version's.
func (s *Server) handshake(conn net.Conn) {
	_ = conn.SetDeadline(time.Now().Add(helloTimeout))
	body, err := ReadFrame(conn, nil)
	if err != nil {
		_ = conn.Close()
		return
	}
	if v, err := helloVersion(body); err != nil {
		_ = conn.Close()
		return
	} else if v != ProtocolVersion {
		s.reject(conn, fmt.Sprintf("protocol version %d, want %d", v, ProtocolVersion))
		return
	}
	h, err := DecodeHello(body)
	if err != nil {
		_ = conn.Close()
		return
	}
	if h.TopoHash != s.cfg.TopoHash {
		s.reject(conn, "topology hash mismatch: processes built from different queries")
		return
	}

	s.mu.Lock()
	if s.finished || s.failing {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	if s.lk == nil {
		// First Hello: the job spec is authoritative, start the shard.
		spec := h.Job
		lk := newLink("source", creditWindow, s, s.cfg.Obs)
		s.lk = lk
		s.spec = spec
		s.runID = h.RunID
		s.epoch = h.Epoch
		s.mu.Unlock()

		run, err := s.cfg.Start(spec, s.ack)
		if err != nil {
			s.reject(conn, err.Error())
			s.finish(err)
			return
		}
		s.mu.Lock()
		s.run = run
		s.inClosed = make([]bool, len(run.In))
		s.mu.Unlock()

		s.attach(conn, h, lk)
		go s.resultPump(run, lk)
		go s.watchdog(lk)
		return
	}
	// Reconnect: same run, strictly newer epoch re-attaches; anything
	// else is a stale or foreign dial.
	if h.RunID != s.runID {
		s.mu.Unlock()
		s.reject(conn, "node is serving a different run")
		return
	}
	if h.Epoch <= s.epoch {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.epoch = h.Epoch
	lk := s.lk
	s.mu.Unlock()
	s.attach(conn, h, lk)
}

// attach completes the handshake on conn and adopts it into the link:
// Welcome first (the dialer reads it synchronously), then adoption,
// which prunes acknowledged frames and retransmits the rest.
func (s *Server) attach(conn net.Conn, h Hello, lk *link) {
	w := Welcome{Version: ProtocolVersion, TopoHash: s.cfg.TopoHash, Acked: lk.delivered64()}
	if err := WriteFrame(conn, AppendWelcome(nil, w)); err != nil {
		_ = conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	lk.adopt(conn, h.Acked)
}

func (s *Server) reject(conn net.Conn, reason string) {
	_ = WriteFrame(conn, AppendReject(nil, reason))
	_ = conn.Close()
}

// ack sends one checkpoint acknowledgment; the shard's snapshot hook
// calls it from a worker goroutine after the blob is durable.
func (s *Server) ack(a SnapAck) error {
	s.mu.Lock()
	lk := s.lk
	s.mu.Unlock()
	if lk == nil {
		return fmt.Errorf("transport: snapshot ack before handshake")
	}
	return lk.sendSeq(true, func(dst []byte, seq uint64) []byte {
		return AppendSnapAck(dst, seq, a)
	})
}

// resultPump streams the shard's results to the source in worker-batch
// order, then finishes the run: Goodbye on success (after all result
// frames are acknowledged), a Reject report on failure.
func (s *Server) resultPump(run *spe.ShardRun, lk *link) {
	for batch := range run.Results {
		for i, item := range batch {
			item := item
			// Results queue while more are waiting behind them.
			dry := i == len(batch)-1 && len(run.Results) == 0
			err := lk.sendSeq(dry, func(dst []byte, seq uint64) []byte {
				return AppendResult(dst, seq, item.Worker, item.Res)
			})
			if err != nil {
				break // link is down for good; drain the rest
			}
		}
	}
	err := run.Wait()
	if err == nil {
		err = lk.lastErr()
	}
	if err != nil {
		lk.sendUnseq(AppendReject(nil, err.Error()))
		s.finish(err)
		return
	}
	if serr := lk.sendSeq(true, func(dst []byte, seq uint64) []byte {
		return AppendGoodbye(dst, seq)
	}); serr != nil {
		s.finish(serr)
		return
	}
	lk.awaitDrain(drainTimeout)
	s.finish(nil)
}

// watchdog fails the run when the source stays disconnected past
// PeerWait — the lame-duck bound that lets a node exit after the
// source dies instead of holding state forever.
func (s *Server) watchdog(lk *link) {
	period := s.cfg.PeerWait / 8
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	var downSince time.Time
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
		}
		if lk.lastErr() != nil {
			return
		}
		if lk.connected() {
			downSince = time.Time{}
			continue
		}
		if downSince.IsZero() {
			downSince = time.Now()
			continue
		}
		if time.Since(downSince) >= s.cfg.PeerWait {
			lk.fatal(fmt.Errorf("transport: source disconnected for %v, abandoning run", s.cfg.PeerWait))
			return
		}
	}
}

// Frame implements linkHandler: decoded source frames become engine
// messages on the shard's input channels. Delivery blocks when a
// worker's queue is full — that stalls this link's reads and dries the
// source's credits, which is the cross-wire back-pressure path.
func (s *Server) Frame(f Frame) error {
	switch f.Kind {
	case KindBatch:
		if len(f.Rows) == 0 {
			return fmt.Errorf("empty batch frame")
		}
		li, err := s.localIndex(f.Dest)
		if err != nil {
			return err
		}
		// Decoded in place into a run and a slab of the shard's pool
		// (Run); the worker gives both back.
		return s.deliver(li, spe.Batch{Rows: f.Rows, Slab: f.slab})
	case KindWatermark:
		li, err := s.localIndex(f.Dest)
		if err != nil {
			return err
		}
		return s.deliver(li, spe.Batch{Ctl: spe.Watermark, WM: f.WM})
	case KindBarrier:
		li, err := s.localIndex(f.Dest)
		if err != nil {
			return err
		}
		return s.deliver(li, spe.Batch{Ctl: spe.Barrier, Barrier: f.Barrier})
	case KindEnd:
		li, err := s.localIndex(f.Dest)
		if err != nil {
			return err
		}
		s.mu.Lock()
		if !s.inClosed[li] {
			close(s.run.In[li])
			s.inClosed[li] = true
		}
		s.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("unexpected %s frame at shard node", f.Kind)
	}
}

// Run implements linkHandler: batch frames decode straight into the
// shard's pooled runs and slabs, which the worker loops recycle.
func (s *Server) Run() ([]tuple.Tuple, []tuple.Value) { return s.run.NewRun() }

func (s *Server) localIndex(dest int) (int, error) {
	li := dest - s.spec.Lo
	if li < 0 || li >= len(s.run.In) {
		return 0, fmt.Errorf("frame for worker %d outside shard [%d, %d)", dest, s.spec.Lo, s.spec.Hi)
	}
	return li, nil
}

// deliver pushes one batch into a worker's input. The send parks
// OUTSIDE s.mu: a worker mid-snapshot calls ack (which takes s.mu)
// before it returns to its queue, so holding the lock across a full
// queue would deadlock the node. Close safety comes from the
// delivering count instead — Fatal aborts parked sends and waits for
// them before closing any channel, and End frames share the reader
// goroutine with deliver, so those never overlap a send.
func (s *Server) deliver(li int, batch spe.Batch) error {
	s.mu.Lock()
	if s.failing || s.finished {
		s.mu.Unlock()
		return nil // run is unwinding; drop quietly
	}
	if s.inClosed[li] {
		s.mu.Unlock()
		return fmt.Errorf("frame for ended worker %d", s.spec.Lo+li)
	}
	ch := s.run.In[li]
	s.delivering.Add(1)
	s.mu.Unlock()
	defer s.delivering.Done()
	select {
	case ch <- batch:
	case <-s.abort:
	}
	return nil
}

// Fatal implements linkHandler: a dead link fails the run, wakes any
// parked deliver, and closes the remaining inputs so the worker loops
// unwind; the result pump then observes the error and finishes Serve.
func (s *Server) Fatal(err error) {
	s.mu.Lock()
	if s.failing || s.finished {
		s.mu.Unlock()
		return
	}
	s.failing = true
	run := s.run
	s.mu.Unlock()
	close(s.abort)
	if run == nil {
		return
	}
	run.Fail(err)
	// No new sends start (failing is set) and parked ones drop out via
	// abort; once they do, closing the channels cannot race a send.
	s.delivering.Wait()
	s.mu.Lock()
	for i, closed := range s.inClosed {
		if !closed {
			close(run.In[i])
			s.inClosed[i] = true
		}
	}
	s.mu.Unlock()
}

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

// FabricConfig configures the source side of the network shuffle.
type FabricConfig struct {
	// Nodes lists the shard node addresses. The windowed parallelism is
	// split contiguously across them in order: node j hosts global
	// workers [j*par/K, (j+1)*par/K).
	Nodes []string
	// TopoHash identifies the query structure; every node must agree.
	TopoHash uint64
	// RunID identifies this execution; reconnects carry it so a node
	// can tell a re-attach from a foreign dial.
	RunID uint64
	// BatchSize is the engine's micro-batch size, forwarded so shards
	// size their runs and queues from it: a batch frame carries up to
	// the runs an outbox holds, so a shard's runs are longer.
	BatchSize int
	// Checkpoint tells shards to expect barriers; RestoreID names the
	// manifest every worker restores from (0 = fresh state).
	Checkpoint bool
	RestoreID  uint64
	// Confirm receives each remote worker's checkpoint acknowledgment
	// (wired to the coordinator's Confirm).
	Confirm func(SnapAck) error
	// Dialer opens connections; nil uses TCP with a timeout. Tests
	// inject faults here.
	Dialer Dialer
	// MaxRedials caps reconnect attempts per outage; BackoffBase starts
	// the exponential backoff between them, capped at 2s.
	MaxRedials  int
	BackoffBase time.Duration
	// Obs, when non-nil, gains per-node transport counters and the
	// probes of the channels the fabric owns: the outboxes and the
	// result fan-in.
	Obs *obs.Instruments
}

// Fabric is the engine-facing end of the shuffle: it implements
// spe.Fabric by pumping the engine's outbox channels into per-node
// reliable links and fanning remote results back into one channel.
type Fabric struct {
	cfg FabricConfig

	mu      sync.Mutex
	err     error
	failing bool
	resOpen bool
	goodbye int // nodes that sent Goodbye

	env     spe.FabricEnv
	results chan []spe.SinkItem
	nodes   []*fabricNode
}

// fabricNode is one shard node's share of the topology.
type fabricNode struct {
	f    *Fabric
	addr string
	lo   int
	hi   int
	lk   *link
	wg   sync.WaitGroup // outbox pumps
	bye  chan struct{}  // closed when the node's Goodbye arrives
}

// NewFabric returns an unopened fabric; install it with
// spe.Topology.SetFabric and the engine calls Open.
func NewFabric(cfg FabricConfig) *Fabric {
	if cfg.Dialer == nil {
		cfg.Dialer = NetDialer{}
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = spe.DefaultBatchSize
	}
	if cfg.MaxRedials <= 0 {
		cfg.MaxRedials = defaultRedials
	}
	return &Fabric{cfg: cfg}
}

// Open implements spe.Fabric: dial every node, start the outbox pumps,
// and return the channels the engine scatters into. queueSize, the hop
// bound the engine resolved, sizes every outbox and the result channel;
// a shard derives the same bound from the BatchSize its Hello carries.
func (f *Fabric) Open(par, queueSize int, env spe.FabricEnv) ([]chan spe.Batch, error) {
	k := len(f.cfg.Nodes)
	if k == 0 {
		return nil, fmt.Errorf("transport: fabric has no nodes")
	}
	if par < k {
		return nil, fmt.Errorf("transport: parallelism %d below %d nodes", par, k)
	}
	f.env = env
	f.results = make(chan []spe.SinkItem, queueSize)
	f.resOpen = true

	outs := make([]chan spe.Batch, par)
	for w := range outs {
		outs[w] = make(chan spe.Batch, queueSize)
	}
	if ins := f.cfg.Obs; ins != nil {
		for w, c := range outs {
			c := c
			ins.RegisterEdge(fmt.Sprintf("shuffle[%d]", w), queueSize, func() int { return len(c) })
		}
		res := f.results
		ins.RegisterSink(queueSize, func() int { return len(res) })
	}

	for j := 0; j < k; j++ {
		n := &fabricNode{
			f: f, addr: f.cfg.Nodes[j],
			lo: j * par / k, hi: (j + 1) * par / k,
			bye: make(chan struct{}),
		}
		var tobs *obs.TransportObs
		if f.cfg.Obs != nil {
			tobs = f.cfg.Obs.RegisterTransport(n.addr)
		}
		n.lk = newLink(n.addr, creditWindow, n, tobs)
		n.lk.redial = func(epoch uint64) (net.Conn, uint64, error) {
			return f.dial(n, epoch)
		}
		// Initial connect reuses the redial path (same handshake, same
		// backoff) at epoch 1.
		n.lk.epoch = 1
		conn, peerAcked, err := n.lk.redial(1)
		if err != nil {
			// Unwind nodes already started: closing their outboxes ends
			// their pumps, closing their links ends readers and credit
			// senders. The engine never saw these channels.
			for _, prev := range f.nodes {
				for w := prev.lo; w < prev.hi; w++ {
					close(outs[w])
				}
				prev.lk.close()
			}
			n.lk.close()
			return nil, fmt.Errorf("transport: connect %s: %w", n.addr, err)
		}
		n.lk.adopt(conn, peerAcked)
		f.nodes = append(f.nodes, n)

		for w := n.lo; w < n.hi; w++ {
			n.wg.Add(1)
			go n.pump(w, outs[w])
		}
		go n.closer()
	}
	return outs, nil
}

// Results implements spe.Fabric.
func (f *Fabric) Results() <-chan []spe.SinkItem { return f.results }

// Err implements spe.Fabric.
func (f *Fabric) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// dial opens and handshakes one connection to n, with capped backoff
// across attempts. A Reject aborts immediately — it is never
// transient — and so does a link that closed meanwhile.
func (f *Fabric) dial(n *fabricNode, epoch uint64) (net.Conn, uint64, error) {
	hello := Hello{
		Version: ProtocolVersion, TopoHash: f.cfg.TopoHash,
		RunID: f.cfg.RunID, Epoch: epoch,
		Job: JobSpec{
			Lo: n.lo, Hi: n.hi,
			BatchSize:  f.cfg.BatchSize,
			Checkpoint: f.cfg.Checkpoint, RestoreID: f.cfg.RestoreID,
		},
		Acked: n.lk.delivered64(),
	}
	var lastErr error
	for attempt := 0; attempt <= f.cfg.MaxRedials; attempt++ {
		if attempt > 0 {
			time.Sleep(backoffFor(attempt-1, f.cfg.BackoffBase))
		}
		if f.Err() != nil {
			return nil, 0, fmt.Errorf("transport: fabric already failed")
		}
		if n.lk.down() {
			return nil, 0, fmt.Errorf("transport: link %s closed", n.addr)
		}
		conn, err := f.cfg.Dialer.Dial(n.addr)
		if err != nil {
			lastErr = err
			continue
		}
		w, err := shake(conn, hello)
		if err != nil {
			_ = conn.Close()
			if _, fatal := err.(rejectError); fatal {
				return nil, 0, err
			}
			lastErr = err
			continue
		}
		return conn, w.Acked, nil
	}
	return nil, 0, fmt.Errorf("transport: %d attempts exhausted: %w", f.cfg.MaxRedials+1, lastErr)
}

// rejectError marks a handshake refusal that must not be retried.
type rejectError struct{ reason string }

func (e rejectError) Error() string { return "peer rejected handshake: " + e.reason }

// shake performs the dialer's half of the handshake on conn.
func shake(conn net.Conn, hello Hello) (Welcome, error) {
	_ = conn.SetDeadline(time.Now().Add(helloTimeout))
	defer func() { _ = conn.SetDeadline(time.Time{}) }()
	if err := WriteFrame(conn, AppendHello(nil, hello)); err != nil {
		return Welcome{}, err
	}
	body, err := ReadFrame(conn, nil)
	if err != nil {
		return Welcome{}, err
	}
	if len(body) > 0 && Kind(body[0]) == KindReject {
		fr, err := DecodeFrame(body)
		if err != nil {
			return Welcome{}, err
		}
		return Welcome{}, rejectError{reason: fr.Reason}
	}
	w, err := DecodeWelcome(body)
	if err != nil {
		return Welcome{}, err
	}
	if w.Version != ProtocolVersion {
		return Welcome{}, rejectError{reason: fmt.Sprintf("protocol version %d", w.Version)}
	}
	if w.TopoHash != hello.TopoHash {
		return Welcome{}, rejectError{reason: "topology hash mismatch"}
	}
	return w, nil
}

// pump drains one destination worker's outbox onto the node's link. A
// data run leaves together with the data runs already queued behind
// it, as one batch frame: their rows are copied into one run the pump
// owns, that run's column image is the frame, and the runs are then
// recycled. The pump never waits for more: a frame ends at an empty
// outbox, at a control, at close, and after as many runs as the outbox
// holds. A frame whose image would be larger than flushBytes is not
// sent; its runs go one frame each instead, so coalescing never builds a
// frame the peer would refuse. A control becomes its control frame, and
// the outbox closing becomes the worker's End frame. Frames queue on the
// link while the outbox has more to give and leave together when it
// runs dry, so a watermark rides the write of the runs behind it; a
// barrier and End never wait. Either way the pump never waits on an
// empty outbox with a frame still queued.
func (n *fabricNode) pump(dest int, out <-chan spe.Batch) {
	defer n.wg.Done()
	recycle := n.f.env.Recycle
	if recycle == nil {
		recycle = func(spe.Batch) {}
	}
	var (
		runs   []spe.Batch
		merged []tuple.Tuple
		held   spe.Batch // a control taken off out behind a frame's runs
		isHeld bool
	)
	for {
		var b spe.Batch
		if isHeld {
			b, isHeld = held, false
		} else {
			var ok bool
			if b, ok = <-out; !ok {
				break
			}
		}
		var err error
		switch b.Ctl {
		case spe.Watermark:
			err = n.lk.sendSeq(len(out) == 0, func(dst []byte, seq uint64) []byte {
				return AppendWatermark(dst, seq, dest, b.WM)
			})
		case spe.Barrier:
			err = n.lk.sendSeq(true, func(dst []byte, seq uint64) []byte {
				return AppendBarrier(dst, seq, dest, b.Barrier)
			})
		default:
			// The runs queued behind b join its frame, never waiting
			// for more.
			runs = append(runs[:0], b)
		gather:
			for len(runs) < cap(out) {
				select {
				case next, ok := <-out:
					if !ok {
						break gather
					}
					if next.Ctl != spe.Data {
						held, isHeld = next, true
						break gather
					}
					runs = append(runs, next)
				default:
					break gather
				}
			}
			merged, err = n.sendRuns(dest, runs, merged, !isHeld && len(out) == 0)
			for _, r := range runs {
				recycle(r)
			}
		}
		if err != nil {
			// Link is terminally down; keep draining so the engine's
			// close cascade can finish.
			if isHeld {
				recycle(held)
			}
			for b := range out {
				recycle(b)
			}
			return
		}
	}
	_ = n.lk.sendSeq(true, func(dst []byte, seq uint64) []byte {
		return AppendEnd(dst, seq, dest)
	})
}

// sendRuns sends the data runs of one frame, in order: as one batch
// frame, its rows copied into merged (returned for reuse), or, when
// that frame's body would pass flushBytes, one frame a run.
func (n *fabricNode) sendRuns(dest int, runs []spe.Batch, merged []tuple.Tuple, flush bool) ([]tuple.Tuple, error) {
	if len(runs) > 1 {
		merged = merged[:0]
		for _, r := range runs {
			merged = append(merged, r.Rows...)
		}
		fits := false
		err := n.lk.sendSeq(flush, func(dst []byte, seq uint64) []byte {
			frame := AppendBatch(dst, seq, dest, 0, merged)
			if fits = len(frame)-len(dst) <= flushBytes; fits {
				return frame
			}
			return AppendBatch(dst, seq, dest, 0, runs[0].Rows)
		})
		if err != nil || fits {
			return merged, err
		}
		runs = runs[1:]
	}
	for i, r := range runs {
		err := n.lk.sendSeq(flush && i == len(runs)-1, func(dst []byte, seq uint64) []byte {
			return AppendBatch(dst, seq, dest, 0, r.Rows)
		})
		if err != nil {
			return merged, err
		}
	}
	return merged, nil
}

// closer tears the node's link down once its pumps have finished and
// its Goodbye arrived (or the link died), then counts the node done.
func (n *fabricNode) closer() {
	n.wg.Wait()
	select {
	case <-n.bye:
		n.lk.awaitDrain(drainTimeout)
	case <-linkDead(n.lk):
	}
	n.lk.close()
}

// linkDead adapts "the link latched an error or closed" into a channel
// for select. Polling keeps the link's cond-based core untouched; the
// closer is far off any hot path.
func linkDead(l *link) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		l.mu.Lock()
		for l.err == nil && !l.closed {
			l.cond.Wait()
		}
		l.mu.Unlock()
		close(ch)
	}()
	return ch
}

// Frame implements linkHandler for one node: results fan into the
// engine's sink, snapshot acknowledgments confirm to the coordinator,
// Goodbye retires the node.
func (n *fabricNode) Frame(fr Frame) error {
	f := n.f
	switch fr.Kind {
	case KindResult:
		f.mu.Lock()
		defer f.mu.Unlock()
		if !f.resOpen {
			return nil
		}
		f.results <- []spe.SinkItem{{Worker: fr.Worker, Res: fr.Result}}
		return nil
	case KindSnapAck:
		if f.cfg.Confirm == nil {
			return fmt.Errorf("snapshot ack without a coordinator")
		}
		return f.cfg.Confirm(fr.Snap)
	case KindGoodbye:
		close(n.bye)
		f.mu.Lock()
		defer f.mu.Unlock()
		f.goodbye++
		if f.goodbye == len(f.nodes) && f.resOpen {
			f.resOpen = false
			close(f.results)
		}
		return nil
	default:
		return fmt.Errorf("unexpected %s frame at source", fr.Kind)
	}
}

// Run implements linkHandler: shards send the source no batch frames.
func (n *fabricNode) Run() ([]tuple.Tuple, []tuple.Value) { return nil, nil }

// Fatal implements linkHandler: the first node failure fails the run
// and releases the sink.
func (n *fabricNode) Fatal(err error) {
	f := n.f
	f.mu.Lock()
	already := f.failing
	f.failing = true
	if f.err == nil {
		f.err = err
	}
	if f.resOpen {
		f.resOpen = false
		close(f.results)
	}
	f.mu.Unlock()
	if !already && f.env.Fail != nil {
		f.env.Fail(err)
	}
}

// Package transport is the distributed runtime's network shuffle: it
// moves the engine's micro-batches — data tuples, watermarks, and
// checkpoint barriers — between a source node (spout, stateless
// stages, sink, checkpoint coordinator) and shard nodes hosting slices
// of the windowed stage, over length-prefixed frames on TCP.
//
// Reliability is sliding-window: every payload frame carries a
// sequence number per direction, receivers acknowledge cumulatively
// with credit frames, and senders retain unacknowledged frames (the
// retention bound doubles as the credit-based back-pressure window).
// A reconnect replays exactly the unacknowledged suffix, so barriers
// and watermarks commute with connection loss: frame order is the
// per-channel order the engine produced, and the receiver's duplicate
// filter makes redelivery idempotent.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"spear/internal/core"
	"spear/internal/tuple"
	"spear/internal/window"
)

// ProtocolVersion is checked during the handshake; peers with a
// different version refuse the connection. Version 2 added the result
// frames' accuracy-contract fields (epsilon, confidence, budget);
// version 3 made the batch frame's tuples a column image; version 4
// packs the image's timestamp deltas at one width; version 5 drops the
// Hello's parallelism, queue size and credit window and the Welcome's
// credit window: a shard derives its queues from the batch size and
// both ends grant the same constant window; version 6 drops the Hello's
// sender count: a shard's workers have one sender, the source's spout,
// so there was nothing to announce.
const ProtocolVersion = 6

// MaxFrame bounds one frame's body. Oversized (or zero) length
// prefixes are rejected before any allocation, closing the
// resource-exhaustion hole the tuple codec's fuzzing found in its
// length fields.
const MaxFrame = 8 << 20

// frameHdr is the length prefix's size: a frame on the wire is a uint32
// little-endian body length followed by the body.
const frameHdr = 4

// ErrFrame reports a malformed frame at the transport layer.
var ErrFrame = errors.New("transport: malformed frame")

// Kind is a frame's type tag, the first body byte.
type Kind uint8

// Frame kinds. Hello/Welcome/Reject form the handshake; Batch,
// Watermark, Barrier, End, Result, SnapAck, and Goodbye are sequenced
// payload frames; Credit is the unsequenced cumulative acknowledgment.
const (
	KindHello Kind = iota + 1
	KindWelcome
	KindReject
	KindBatch
	KindWatermark
	KindBarrier
	KindEnd
	KindCredit
	KindResult
	KindSnapAck
	KindGoodbye
)

// String names the kind for errors.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindWelcome:
		return "welcome"
	case KindReject:
		return "reject"
	case KindBatch:
		return "batch"
	case KindWatermark:
		return "watermark"
	case KindBarrier:
		return "barrier"
	case KindEnd:
		return "end"
	case KindCredit:
		return "credit"
	case KindResult:
		return "result"
	case KindSnapAck:
		return "snapack"
	case KindGoodbye:
		return "goodbye"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// WriteFrame writes body as one length-prefixed frame (uint32
// little-endian length, then the body).
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) == 0 || len(body) > MaxFrame {
		return fmt.Errorf("%w: body of %d bytes", ErrFrame, len(body))
	}
	var hdr [frameHdr]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame body into buf (reused when large enough)
// and returns it. Length prefixes of zero or beyond MaxFrame are
// rejected before any read or allocation. The length prefix is read
// into buf too: a local array would escape through r, an allocation a
// frame.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameHdr {
		buf = make([]byte, frameHdr)
	}
	hdr := buf[:frameHdr]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("%w: length prefix %d", ErrFrame, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// JobSpec is the shard assignment a source's Hello carries: which
// global workers this node hosts, the topology shape the shard must
// mirror for bit-identical execution, and the checkpoint posture.
type JobSpec struct {
	Lo, Hi     int    // global windowed worker range [Lo, Hi)
	BatchSize  int    // the source's; the shard's run length and queues follow from it
	Checkpoint bool   // the source runs the checkpoint protocol
	RestoreID  uint64 // manifest to restore from, 0 = fresh state
}

// Hello is the dialer's opening frame: protocol identity plus the job
// spec of the shard the connection feeds, and — on reconnect — the
// cumulative sequence the dialer has delivered from the peer, so the
// peer can drop acknowledged frames and replay the rest.
type Hello struct {
	Version  uint32
	TopoHash uint64
	RunID    uint64
	Epoch    uint64  // connection attempt counter; newest epoch wins
	Job      JobSpec // identical on every epoch of a run

	Acked uint64 // last peer→dialer seq the dialer has delivered
}

// AppendHello encodes h as a frame body.
func AppendHello(dst []byte, h Hello) []byte {
	j := h.Job
	dst = append(dst, byte(KindHello))
	dst = tuple.AppendUvar(dst, uint64(h.Version))
	dst = tuple.AppendU64(dst, h.TopoHash)
	dst = tuple.AppendU64(dst, h.RunID)
	dst = tuple.AppendUvar(dst, h.Epoch)
	dst = tuple.AppendUvar(dst, uint64(j.Lo))
	dst = tuple.AppendUvar(dst, uint64(j.Hi))
	dst = tuple.AppendUvar(dst, uint64(j.BatchSize))
	dst = tuple.AppendBool(dst, j.Checkpoint)
	dst = tuple.AppendU64(dst, j.RestoreID)
	dst = tuple.AppendUvar(dst, h.Acked)
	return dst
}

// DecodeHello decodes a KindHello body.
func DecodeHello(body []byte) (Hello, error) {
	r, h := reader(body, KindHello), Hello{}
	j := &h.Job
	h.Version = uint32(r.Uvar())
	h.TopoHash = r.U64()
	h.RunID = r.U64()
	h.Epoch = r.Uvar()
	j.Lo = uvarInt(r)
	j.Hi = uvarInt(r)
	j.BatchSize = uvarInt(r)
	j.Checkpoint = r.Bool()
	j.RestoreID = r.U64()
	h.Acked = r.Uvar()
	if err := r.Done(); err != nil {
		return Hello{}, fmt.Errorf("%w: hello: %v", ErrFrame, err)
	}
	if j.Lo < 0 || j.Hi <= j.Lo {
		return Hello{}, fmt.Errorf("%w: hello shard [%d,%d)", ErrFrame, j.Lo, j.Hi)
	}
	return h, nil
}

// helloVersion reads the protocol version a KindHello body starts with,
// which every version's layout puts first.
func helloVersion(body []byte) (uint32, error) {
	r := reader(body, KindHello)
	v := uint32(r.Uvar())
	return v, r.Err()
}

// Welcome is the listener's handshake reply, mirroring identity and
// carrying the listener's delivered sequence.
type Welcome struct {
	Version  uint32
	TopoHash uint64
	Acked    uint64 // last dialer→listener seq the listener has delivered
}

// AppendWelcome encodes w as a frame body.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = append(dst, byte(KindWelcome))
	dst = tuple.AppendUvar(dst, uint64(w.Version))
	dst = tuple.AppendU64(dst, w.TopoHash)
	dst = tuple.AppendUvar(dst, w.Acked)
	return dst
}

// DecodeWelcome decodes a KindWelcome body.
func DecodeWelcome(body []byte) (Welcome, error) {
	r, w := reader(body, KindWelcome), Welcome{}
	w.Version = uint32(r.Uvar())
	w.TopoHash = r.U64()
	w.Acked = r.Uvar()
	if err := r.Done(); err != nil {
		return Welcome{}, fmt.Errorf("%w: welcome: %v", ErrFrame, err)
	}
	return w, nil
}

// AppendReject encodes a fatal handshake refusal (version or topology
// mismatch, unknown run) that the dialer must not retry.
func AppendReject(dst []byte, reason string) []byte {
	dst = append(dst, byte(KindReject))
	return tuple.AppendStr(dst, reason)
}

// SnapAck is a shard worker's checkpoint acknowledgment: the snapshot
// blob for (ID, Worker) is durable in the shared store under Key with
// the given size and checksum, and the listed deferred store deletions
// became safe to execute once the checkpoint commits.
type SnapAck struct {
	ID       uint64
	Worker   int
	Key      string
	Size     int64
	Sum      uint64
	Deferred []string
}

// Frame is one decoded payload frame. Kind selects which fields are
// meaningful.
type Frame struct {
	Kind    Kind
	Seq     uint64        // sequenced kinds; 0 for Credit
	Dest    int           // Batch/Watermark/Barrier/End: global windowed worker
	WM      int64         // Watermark
	Barrier uint64        // Barrier: checkpoint id
	Acked   uint64        // Credit: cumulative delivered seq
	Worker  int           // Result: producing worker
	Rows    []tuple.Tuple // Batch: the run of data tuples
	slab    []tuple.Value // Batch: the slab Rows' values are carved from
	Result  core.Result   // Result
	Snap    SnapAck       // SnapAck
	Reason  string        // Reject
}

// AppendBatch encodes a data frame from one run of tuples, as it comes
// off an engine channel: the frame header, then the run's column image
// (tuple.AppendColumns). This is the transport send hot path and is
// lock-free by contract: it appends into dst with the tuple codec and
// performs no other work per tuple (TestBatchFrameCodecIsLockFree holds
// both directions to it). The fourth argument is not written: a worker
// has one sender, so the sender byte of a data or control frame is
// always 0 (the benchmark's transport probe still passes one).
//
//	kind    byte      KindBatch
//	seq     uvarint
//	dest    uvarint   global windowed worker
//	sender  byte      0
//	image   the rest of the body: row count, Ts base, delta width and
//	        deltas, row width, one packed column per field (see
//	        tuple/columns.go)
func AppendBatch(dst []byte, seq uint64, dest, _ int, ts []tuple.Tuple) []byte {
	return tuple.AppendColumns(appendHead(dst, KindBatch, seq, dest), ts)
}

// AppendWatermark encodes a watermark control frame.
func AppendWatermark(dst []byte, seq uint64, dest int, wm int64) []byte {
	return tuple.AppendI64(appendHead(dst, KindWatermark, seq, dest), wm)
}

// AppendBarrier encodes a checkpoint barrier control frame.
func AppendBarrier(dst []byte, seq uint64, dest int, id uint64) []byte {
	return tuple.AppendU64(appendHead(dst, KindBarrier, seq, dest), id)
}

// appendHead writes the head a data or control frame starts with: kind,
// seq, dest and the sender byte, 0.
func appendHead(dst []byte, k Kind, seq uint64, dest int) []byte {
	dst = append(dst, byte(k))
	dst = tuple.AppendUvar(dst, seq)
	dst = tuple.AppendUvar(dst, uint64(dest))
	return append(dst, 0)
}

// readHead reads what appendHead wrote past the kind byte, refusing a
// sender byte other than 0.
func readHead(r *tuple.WireReader, f *Frame) {
	f.Seq = r.Uvar()
	f.Dest = uvarInt(r)
	if r.Byte() != 0 {
		r.Corrupt("sender other than 0")
	}
}

// AppendEnd encodes the stream-end frame for one destination worker.
func AppendEnd(dst []byte, seq uint64, dest int) []byte {
	dst = append(dst, byte(KindEnd))
	dst = tuple.AppendUvar(dst, seq)
	dst = tuple.AppendUvar(dst, uint64(dest))
	return dst
}

// AppendCredit encodes a cumulative acknowledgment (unsequenced).
func AppendCredit(dst []byte, acked uint64) []byte {
	dst = append(dst, byte(KindCredit))
	return tuple.AppendUvar(dst, acked)
}

// AppendResult encodes one window result frame. Grouped values are
// written in sorted key order so identical results yield identical
// bytes (the identity tests compare decoded values, but deterministic
// encoding keeps frame-level replay comparable too).
func AppendResult(dst []byte, seq uint64, worker int, r core.Result) []byte {
	dst = append(dst, byte(KindResult))
	dst = tuple.AppendUvar(dst, seq)
	dst = tuple.AppendUvar(dst, uint64(worker))
	dst = tuple.AppendI64(dst, int64(r.WindowID))
	dst = tuple.AppendI64(dst, r.Start)
	dst = tuple.AppendI64(dst, r.End)
	dst = tuple.AppendI64(dst, r.N)
	dst = tuple.AppendUvar(dst, uint64(r.SampleN))
	dst = append(dst, byte(r.Mode))
	dst = tuple.AppendF64(dst, r.EstError)
	dst = tuple.AppendF64(dst, r.Epsilon)
	dst = tuple.AppendF64(dst, r.Confidence)
	dst = tuple.AppendUvar(dst, uint64(r.Budget))
	dst = tuple.AppendBool(dst, r.FetchedFromStore)
	dst = tuple.AppendF64(dst, r.Scalar)
	if r.Groups == nil {
		dst = tuple.AppendBool(dst, false)
		return dst
	}
	dst = tuple.AppendBool(dst, true)
	dst = tuple.AppendUvar(dst, uint64(len(r.Groups)))
	for _, k := range sortedKeys(r.Groups) {
		dst = tuple.AppendStr(dst, k)
		dst = tuple.AppendF64(dst, r.Groups[k])
	}
	return dst
}

// AppendSnapAck encodes a checkpoint acknowledgment frame.
func AppendSnapAck(dst []byte, seq uint64, a SnapAck) []byte {
	dst = append(dst, byte(KindSnapAck))
	dst = tuple.AppendUvar(dst, seq)
	dst = tuple.AppendU64(dst, a.ID)
	dst = tuple.AppendUvar(dst, uint64(a.Worker))
	dst = tuple.AppendStr(dst, a.Key)
	dst = tuple.AppendI64(dst, a.Size)
	dst = tuple.AppendU64(dst, a.Sum)
	dst = tuple.AppendUvar(dst, uint64(len(a.Deferred)))
	for _, k := range a.Deferred {
		dst = tuple.AppendStr(dst, k)
	}
	return dst
}

// AppendGoodbye encodes the shard-finished frame: every local worker
// has drained and all results precede this frame in sequence.
func AppendGoodbye(dst []byte, seq uint64) []byte {
	dst = append(dst, byte(KindGoodbye))
	return tuple.AppendUvar(dst, seq)
}

// DecodeFrame decodes one payload frame body (any kind except Hello
// and Welcome, which have dedicated decoders). Every length and count
// is bounds-checked against the remaining body, so truncated or
// hostile inputs return ErrFrame without large allocations.
func DecodeFrame(body []byte) (Frame, error) { return decodeFrame(body, nil) }

// decodeFrame is DecodeFrame with the home of a batch frame's tuples
// chosen by the caller: run, when non-nil, supplies the empty slice
// they are appended to and the slab their values are carved from (a
// run and a slab of the shard's pool, so a frame reaches the engine
// without a copy and, where the slab comes back, without an
// allocation); nil allocates both. The frame carries the slab on for
// the pool. It is the transport receive hot path and lock-free by
// contract, as AppendBatch is on the send side.
func decodeFrame(body []byte, run func() ([]tuple.Tuple, []tuple.Value)) (Frame, error) {
	if len(body) == 0 {
		return Frame{}, fmt.Errorf("%w: empty body", ErrFrame)
	}
	f := Frame{Kind: Kind(body[0])}
	r := tuple.NewWireReader(body[1:])
	switch f.Kind {
	case KindBatch:
		readHead(r, &f)
		if err := r.Err(); err != nil {
			return Frame{}, fmt.Errorf("%w: batch: %v", ErrFrame, err)
		}
		// The rest of the body is the run's column image. The tuple
		// codec checks its row count and widths against its length
		// before it allocates, appends the rows to the run and carves
		// every row's values from the one slab: the receive hot path
		// does no other work per tuple.
		var dst []tuple.Tuple
		var slab []tuple.Value
		if run != nil {
			dst, slab = run()
		}
		rows, slab, err := tuple.DecodeColumnsInto(dst, slab, r.Rest())
		if err != nil {
			return Frame{}, fmt.Errorf("%w: batch: %v", ErrFrame, err)
		}
		f.Rows, f.slab = rows, slab
		return f, nil
	case KindWatermark:
		readHead(r, &f)
		f.WM = r.I64()
	case KindBarrier:
		readHead(r, &f)
		f.Barrier = r.U64()
	case KindEnd:
		f.Seq = r.Uvar()
		f.Dest = uvarInt(r)
	case KindCredit:
		f.Acked = r.Uvar()
	case KindResult:
		f.Seq = r.Uvar()
		f.Worker = uvarInt(r)
		f.Result.WindowID = window.ID(r.I64())
		f.Result.Start = r.I64()
		f.Result.End = r.I64()
		f.Result.N = r.I64()
		f.Result.SampleN = uvarInt(r)
		f.Result.Mode = core.Mode(r.Byte())
		f.Result.EstError = r.F64()
		f.Result.Epsilon = r.F64()
		f.Result.Confidence = r.F64()
		f.Result.Budget = uvarInt(r)
		f.Result.FetchedFromStore = r.Bool()
		f.Result.Scalar = r.F64()
		if r.Bool() {
			n := r.Count(9) // key uvarint+value f64 ≥ 9 bytes per group
			groups := make(map[string]float64, n)
			for i := 0; i < n; i++ {
				k := r.Str()
				groups[k] = r.F64()
			}
			f.Result.Groups = groups
		}
	case KindSnapAck:
		f.Seq = r.Uvar()
		f.Snap.ID = r.U64()
		f.Snap.Worker = uvarInt(r)
		f.Snap.Key = r.Str()
		f.Snap.Size = r.I64()
		f.Snap.Sum = r.U64()
		n := r.Count(1)
		for i := 0; i < n; i++ {
			f.Snap.Deferred = append(f.Snap.Deferred, r.Str())
		}
	case KindGoodbye:
		f.Seq = r.Uvar()
	case KindReject:
		f.Reason = r.Str()
	default:
		return Frame{}, fmt.Errorf("%w: unknown kind %d", ErrFrame, body[0])
	}
	if err := r.Done(); err != nil {
		return Frame{}, fmt.Errorf("%w: %s: %v", ErrFrame, f.Kind, err)
	}
	return f, nil
}

// sequenced reports whether k carries a sequence number and therefore
// participates in the sliding-window reliability protocol.
func sequenced(k Kind) bool {
	switch k {
	case KindBatch, KindWatermark, KindBarrier, KindEnd, KindResult, KindSnapAck, KindGoodbye:
		return true
	}
	return false
}

// reader wraps body (past the kind byte) after asserting the tag.
func reader(body []byte, want Kind) *tuple.WireReader {
	if len(body) == 0 || Kind(body[0]) != want {
		// An empty reader latches an error on first read; callers
		// surface it via Done.
		return tuple.NewWireReader(nil)
	}
	return tuple.NewWireReader(body[1:])
}

// uvarInt reads a uvarint and narrows it to int, latching corruption
// on overflow.
func uvarInt(r *tuple.WireReader) int {
	v := r.Uvar()
	if v > uint64(int(^uint(0)>>1)) {
		r.Corrupt("uvarint exceeds int")
		return 0
	}
	return int(v)
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

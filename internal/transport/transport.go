// Package transport runs the same protocol state machines that the
// simulator drives (sim.Node implementations) over real TCP connections —
// the deployment path for the library, as opposed to the reproducible
// research path of internal/sim.
//
// # Topology
//
// A full mesh: every node listens on a TCP address and dials every
// higher-numbered peer (lower-numbered peers dial it), yielding one duplex
// connection per pair. The dialer's first frame is a hello identifying
// itself; the acceptor validates it (magic, version, matching cluster
// size, peer ID in range and not self) before the connection is
// registered. Registration deduplicates: the first connection for a peer
// wins, later ones are closed on arrival, and Connect reports the
// duplicate as an error — so one peer can never have two writers
// interleaving its FIFO stream.
//
// # Wire format
//
// Frames are length-prefixed binary: [1-byte type][4-byte big-endian
// payload length][payload]. A hello payload is [magic u32]
// [version u8][uvarint from][uvarint n]. A batch payload is a sequence of
// [uvarint length][message frame] entries, where a message frame is the
// shared binary codec's [uvarint tag][body] (internal/wire) — the same
// encoding sim.MessageSize prices, so simulated byte metrics match real
// wire bytes. Any other frame type after the hello closes the
// connection. The codec is stateless per frame, so a hello can be written
// directly by the dialer and any writer can resume after a reconnect
// without stream-state corruption. Message codecs register themselves
// with internal/wire at their package's init; this package imports no
// protocol package, so a binary decodes exactly the messages of the
// protocol packages it links.
//
// # Concurrency model
//
// Each node runs exactly one loop goroutine that serializes Init/Receive
// calls, so the protocol state machines need no locking — the same
// single-threaded discipline the simulator provides. Per-connection
// reader goroutines decode frames into the loop's inbox; one per-peer
// writer goroutine drains that peer's outbox into batched frames, one
// Write syscall per frame regardless of how many messages it carries. The
// writer encodes each message once, straight into the frame behind its
// length prefix; a message that fails to encode is dropped alone and
// counted (PeerStats.EncodeErrors).
//
// Each outbox alternates two arrays: a drain hands its caller the queue
// and installs, cleared, the batch that caller drained the time before,
// so the writer (and the node loop, for self-sends) queue and drain
// without allocating in steady state. A message is immutable once pushed
// (the sim.Message contract): it may sit in a queue, or be read by a
// writer, long after the node has moved on.
//
// # Bounded outboxes and backpressure
//
// Per-peer outboxes are bounded (HostConfig.OutboxLimit, default
// DefaultOutboxLimit). When an outbox is full, Env.Send BLOCKS the node
// loop until the writer drains — explicit backpressure instead of the old
// unbounded queue's silent OOM. Messages are never dropped by the bound.
// The tradeoff is documented honestly: a cycle of nodes all blocked on
// full outboxes to each other can in principle deadlock (the reliable-
// links model has no flow control), which is why the default limit is
// sized far above any per-round protocol burst; deployments that need
// end-to-end flow control add it above this layer. The self-send queue
// stays unbounded — the node loop produces and consumes it itself, so any
// bound there would certainly deadlock.
//
// A dead peer blocks a correct node without any cycle: when a peer's
// connection dies its writer exits, nothing drains that peer's outbox
// until a new connection registers (there is no redial), and once
// OutboxLimit messages are queued the next Env.Send to it blocks the node
// loop until Close (TestCloseUnblocksBackpressure relies on it). So one
// crashed peer halts every node that keeps sending to it.
//
// # Reliability accounting
//
// A writer that hits a mid-drain write error re-queues the unsent tail of
// its batch at the front of the outbox (FIFO preserved, the bound is
// deliberately ignored for re-queues) and unregisters the dead
// connection, so a subsequent Connect resumes the stream without loss —
// the reliable-links contract a reconnect path depends on. Per-peer
// counters (PeerStats) surface frames/messages/bytes written, write
// errors, encode errors and re-queued envelopes.
//
// Close tears everything down, unblocks any sender stuck in backpressure,
// and waits for every goroutine to exit.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// Wire framing. ------------------------------------------------------------

const (
	frameHello byte = 0x01
	frameBatch byte = 0x02

	wireMagic   uint32 = 0x61447631 // "aDv1"
	wireVersion byte   = 1

	frameHeaderSize = 5
	// maxFramePayload bounds one frame accepted off the wire, so a
	// malicious peer cannot force an arbitrary allocation with a forged
	// length field.
	maxFramePayload = 8 << 20
	// batchSoftLimit closes a batch frame once its payload exceeds this
	// size; a drain larger than that is split across frames, which is
	// also what gives the re-queue path its "unsent tail" granularity.
	batchSoftLimit = 256 << 10
	// maxKeptPayload bounds the read buffer a connection keeps between
	// frames. An honest writer's frames stay below it unless one message
	// alone is larger; a peer's maxFramePayload frame is read into a
	// buffer used once.
	maxKeptPayload = 2 * batchSoftLimit
)

// DefaultOutboxLimit is the per-peer outbox bound applied when
// HostConfig.OutboxLimit is 0 — far above any per-round protocol burst,
// so backpressure only engages when a peer genuinely stops draining.
const DefaultOutboxLimit = 4096

// appendHello builds a hello frame payload.
func appendHello(b []byte, from types.ProcessID, n int) []byte {
	b = binary.BigEndian.AppendUint32(b, wireMagic)
	b = append(b, wireVersion)
	b = wire.AppendUvarint(b, uint64(from))
	b = wire.AppendUvarint(b, uint64(n))
	return b
}

// parseHello validates and decodes a hello frame payload.
func parseHello(b []byte) (from types.ProcessID, n int, err error) {
	if len(b) < 5 {
		return 0, 0, wire.ErrTruncated
	}
	if binary.BigEndian.Uint32(b) != wireMagic {
		return 0, 0, fmt.Errorf("transport: bad hello magic")
	}
	if b[4] != wireVersion {
		return 0, 0, fmt.Errorf("transport: wire version %d, want %d", b[4], wireVersion)
	}
	f, rest, err := wire.ReadInt(b[5:], wire.MaxUniverse)
	if err != nil {
		return 0, 0, fmt.Errorf("transport: hello from: %w", err)
	}
	cn, _, err := wire.ReadInt(rest, wire.MaxUniverse)
	if err != nil {
		return 0, 0, fmt.Errorf("transport: hello n: %w", err)
	}
	return types.ProcessID(f), cn, nil
}

// writeFrame writes [type][len][payload] with a single Write. The writer
// builds its batch frames in place instead (writeBatch); this is for the
// hello.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	buf := make([]byte, 0, frameHeaderSize+len(payload))
	buf = append(buf, typ)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	_, err := w.Write(append(buf, payload...))
	return err
}

// readFrame reads one frame, reusing payload — the caller's previous
// frame, decoded and done with — when it is large enough and at most
// maxKeptPayload. Decoders copy everything they keep, so reuse is safe.
// A larger buffer is dropped before the read blocks, so one oversized
// frame does not stay pinned for the life of the connection.
func readFrame(r io.Reader, hdr *[frameHeaderSize]byte, payload []byte) (byte, []byte, error) {
	if cap(payload) > maxKeptPayload {
		payload = nil
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, payload, err
	}
	typ := hdr[0]
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFramePayload {
		return 0, payload, fmt.Errorf("transport: frame payload %d exceeds limit", n)
	}
	if cap(payload) < int(n) {
		payload = make([]byte, n)
	} else {
		payload = payload[:n]
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, payload, err
	}
	return typ, payload, nil
}

// Host configuration. -------------------------------------------------------

// HostConfig configures one Host.
type HostConfig struct {
	Self types.ProcessID
	N    int
	Node sim.Node
	// Addr is the TCP listen address ("127.0.0.1:0" for ephemeral).
	Addr string
	// OutboxLimit bounds each per-peer outbox in envelopes; a full outbox
	// blocks the sending node loop (backpressure) until the writer
	// drains. 0 selects DefaultOutboxLimit; a negative limit is an error.
	OutboxLimit int
}

// envelope pairs a decoded message with its sender for the node loop.
type envelope struct {
	From types.ProcessID
	Msg  sim.Message
}

// connRec tracks one registered peer connection. stop is closed (once)
// when either side of the connection dies, so the reader's death promptly
// tears down the writer and frees the peer slot for a reconnect — and
// vice versa.
type connRec struct {
	c    net.Conn
	stop chan struct{}
	once *sync.Once
}

// outbox is a FIFO with an optional bound and a writer wakeup channel.
// push blocks while the queue is at its limit (backpressure); requeue
// prepends regardless of the limit (failed-write tails must never be
// dropped); close unblocks every waiter.
type outbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []envelope
	limit  int // <= 0: unbounded
	closed bool
	wake   chan struct{}
}

func newOutbox(limit int) *outbox {
	q := &outbox{limit: limit, wake: make(chan struct{}, 1)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends e, blocking while the queue is full. It reports false when
// the queue was closed (the host is shutting down; the message is
// discarded).
func (q *outbox) push(e envelope) bool {
	q.mu.Lock()
	for q.limit > 0 && len(q.items) >= q.limit && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, e)
	q.mu.Unlock()
	q.signal()
	return true
}

// requeue prepends batch (a failed write's unsent tail), ignoring the
// bound: bounded outboxes apply backpressure to new sends, never loss to
// already-accepted ones.
func (q *outbox) requeue(batch []envelope) {
	q.mu.Lock()
	merged := make([]envelope, 0, len(batch)+len(q.items))
	merged = append(merged, batch...)
	merged = append(merged, q.items...)
	q.items = merged
	q.mu.Unlock()
	q.signal()
}

func (q *outbox) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// drain takes the whole queue, installs spare — the batch the caller
// drained last time and is done with — as the new, empty queue, and wakes
// any sender blocked on the bound. Clearing spare drops its message
// references, so a written message is not kept alive by the buffer; a
// caller that alternates the two arrays drains without allocating.
func (q *outbox) drain(spare []envelope) []envelope {
	clear(spare)
	q.mu.Lock()
	out := q.items
	q.items = spare[:0]
	q.mu.Unlock()
	q.cond.Broadcast()
	return out
}

// len reports the current queue length (tests and stats).
func (q *outbox) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

func (q *outbox) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Stats. --------------------------------------------------------------------

// peerCounters are the per-peer atomic counters behind PeerStats.
type peerCounters struct {
	frames     atomic.Uint64
	msgs       atomic.Uint64
	bytes      atomic.Uint64
	writeErrs  atomic.Uint64
	encodeErrs atomic.Uint64
	requeued   atomic.Uint64
}

// PeerStats is a snapshot of one peer link's writer-side counters.
type PeerStats struct {
	// FramesSent counts batch frames written (one Write syscall each).
	FramesSent uint64
	// MessagesSent and BytesSent count messages and total wire bytes
	// (frame headers included) written to the peer.
	MessagesSent uint64
	BytesSent    uint64
	// WriteErrors counts connection write failures; each one re-queued
	// the unsent tail (Requeued envelopes in total) instead of losing it.
	WriteErrors uint64
	Requeued    uint64
	// EncodeErrors counts messages that could not be encoded (an
	// unregistered type reaching a real transport); such messages are
	// dropped and counted, never silently skipped.
	EncodeErrors uint64
}

// HostStats aggregates a host's traffic counters.
type HostStats struct {
	PeerStats // writer-side totals across all peers
	// MessagesReceived / BytesReceived count decoded inbound traffic
	// (frame headers included in bytes).
	MessagesReceived uint64
	BytesReceived    uint64
}

// Host. ---------------------------------------------------------------------

// Host runs one protocol node over TCP.
type Host struct {
	self  types.ProcessID
	n     int
	node  sim.Node
	epoch time.Time

	listener net.Listener

	mu    sync.Mutex
	conns map[types.ProcessID]connRec
	// dialing holds the peers a Connect is in flight to, so a second
	// Connect to the same peer is refused before it reaches the network.
	dialing types.Set
	started bool
	closed  bool

	// outbox holds one outbox per peer, indexed by peer, nil at self. It is
	// fixed at construction, so Send reads it without h.mu.
	outbox []*outbox

	stats     []peerCounters
	recvMsgs  atomic.Uint64
	recvBytes atomic.Uint64

	inbox chan envelope
	// selfQ holds self-sends. It must be unbounded and separate from
	// inbox: the node loop itself produces these, and blocking on its own
	// bounded inbox would deadlock the loop.
	selfQ *outbox
	calls chan call
	done  chan struct{}
	wg    sync.WaitGroup
}

// call is one Inspect request: the loop runs fn, then signals done.
type call struct {
	fn   func()
	done chan struct{}
}

// donePool recycles Inspect's completion channels. Each has capacity 1,
// so the loop's signal never blocks, and is empty when it is put back.
var donePool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// NewHostConfig creates a host for cfg.Node listening on cfg.Addr. Call
// Addr to learn the bound address, Connect to wire peers, then Start.
func NewHostConfig(cfg HostConfig) (*Host, error) {
	if cfg.N <= 0 || cfg.Self < 0 || int(cfg.Self) >= cfg.N {
		return nil, fmt.Errorf("transport: self %v out of range for n=%d", cfg.Self, cfg.N)
	}
	if cfg.OutboxLimit < 0 {
		return nil, fmt.Errorf("transport: negative outbox limit %d", cfg.OutboxLimit)
	}
	limit := cfg.OutboxLimit
	if limit == 0 {
		limit = DefaultOutboxLimit
	}
	l, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	h := &Host{
		self:     cfg.Self,
		n:        cfg.N,
		node:     cfg.Node,
		epoch:    time.Now(),
		listener: l,
		conns:    map[types.ProcessID]connRec{},
		dialing:  types.NewSet(cfg.N),
		outbox:   make([]*outbox, cfg.N),
		stats:    make([]peerCounters, cfg.N),
		inbox:    make(chan envelope, 1024),
		selfQ:    newOutbox(0),
		calls:    make(chan call),
		done:     make(chan struct{}),
	}
	// Outboxes exist for every peer up front: messages sent before the
	// connection is wired are queued and flushed once it attaches, so the
	// "reliable links" assumption holds from the first Init broadcast.
	for p := range h.outbox {
		if types.ProcessID(p) != cfg.Self {
			h.outbox[p] = newOutbox(limit)
		}
	}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the listener's address.
func (h *Host) Addr() string { return h.listener.Addr().String() }

// Connected returns the peers with a registered live connection, in
// ascending order (tests and monitoring).
func (h *Host) Connected() []types.ProcessID {
	h.mu.Lock()
	out := make([]types.ProcessID, 0, len(h.conns))
	for p := range h.conns {
		out = append(out, p)
	}
	h.mu.Unlock()
	return types.SortedCopy(out)
}

// PeerStats returns a snapshot of the writer-side counters for one peer.
func (h *Host) PeerStats(peer types.ProcessID) PeerStats {
	if peer < 0 || int(peer) >= h.n {
		return PeerStats{}
	}
	c := &h.stats[peer]
	return PeerStats{
		FramesSent:   c.frames.Load(),
		MessagesSent: c.msgs.Load(),
		BytesSent:    c.bytes.Load(),
		WriteErrors:  c.writeErrs.Load(),
		Requeued:     c.requeued.Load(),
		EncodeErrors: c.encodeErrs.Load(),
	}
}

// Stats returns the host's aggregate traffic counters.
func (h *Host) Stats() HostStats {
	var s HostStats
	for p := range h.stats {
		ps := h.PeerStats(types.ProcessID(p))
		s.FramesSent += ps.FramesSent
		s.MessagesSent += ps.MessagesSent
		s.BytesSent += ps.BytesSent
		s.WriteErrors += ps.WriteErrors
		s.Requeued += ps.Requeued
		s.EncodeErrors += ps.EncodeErrors
	}
	s.MessagesReceived = h.recvMsgs.Load()
	s.BytesReceived = h.recvBytes.Load()
	return s
}

// readerPool recycles the per-connection read buffers: a mesh of n hosts
// opens n(n-1) of them, and zeroing a fresh 64 KiB for each was most of
// the time it took to connect one.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

func getReader(c net.Conn) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(c)
	return br
}

func putReader(br *bufio.Reader) {
	br.Reset(nil) // drop the connection and whatever it had buffered
	readerPool.Put(br)
}

// acceptLoop accepts peer connections; the first frame on each connection
// must be a valid hello identifying the peer, or the connection is
// dropped before anything is registered.
func (h *Host) acceptLoop() {
	defer h.wg.Done()
	for {
		c, err := h.listener.Accept()
		if err != nil {
			return // listener closed
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			br := getReader(c)
			defer putReader(br)
			var hdr [frameHeaderSize]byte
			typ, payload, err := readFrame(br, &hdr, nil)
			if err != nil || typ != frameHello {
				_ = c.Close()
				return
			}
			peer, cn, err := parseHello(payload)
			// Validate BEFORE anything touches the connection maps: an
			// out-of-range ID, a self-connection or a mesh-size mismatch
			// never gets registered (and can therefore never leave a
			// stale conn behind for Close to trip over).
			if err != nil || cn != h.n || peer == h.self || int(peer) >= h.n {
				_ = c.Close()
				return
			}
			rec, ok := h.registerConn(peer, c)
			if !ok {
				return // duplicate or shutting down; registerConn closed c
			}
			h.readLoop(peer, br, rec)
		}()
	}
}

// Connect dials a peer's listener, performs the hello handshake, and
// registers the connection. Only one side of each pair should dial (by
// convention, the lower ID). Connecting to a peer that is already
// connected, or that another Connect is dialling, is an error, decided
// before anything touches the network: were the duplicate dialled first
// and refused afterwards, the acceptor — which handles each connection in
// its own goroutine — could register the second connection and close the
// first, each end then closing the one the other kept, and with no redial
// the link would stay down.
func (h *Host) Connect(peer types.ProcessID, addr string) error {
	if peer == h.self || peer < 0 || int(peer) >= h.n {
		return fmt.Errorf("transport: unknown peer %v", peer)
	}
	h.mu.Lock()
	_, dup := h.conns[peer]
	if dup || h.dialing.Contains(peer) {
		h.mu.Unlock()
		return fmt.Errorf("transport: peer %v already connected", peer)
	}
	h.dialing.Add(peer)
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.dialing.Remove(peer)
		h.mu.Unlock()
	}()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: dial %v: %w", peer, err)
	}
	// The codec is stateless per frame, so the hello is written directly
	// here, before any writer exists for the connection — it is
	// guaranteed to be the first bytes on the wire.
	if err := writeFrame(c, frameHello, appendHello(nil, h.self, h.n)); err != nil {
		_ = c.Close()
		return fmt.Errorf("transport: hello to %v: %w", peer, err)
	}
	rec, ok := h.registerConn(peer, c)
	if !ok {
		return fmt.Errorf("transport: peer %v already connected", peer)
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		br := getReader(c)
		defer putReader(br)
		h.readLoop(peer, br, rec)
	}()
	return nil
}

// registerConn stores the connection and spawns the writer that drains
// the peer's (pre-existing) outbox. It reports false — and closes c —
// when the peer already has a live connection (keep-first dedup: a second
// writer draining the same outbox would interleave and reorder the peer's
// FIFO stream) or the host is closing. Callers must have validated peer.
func (h *Host) registerConn(peer types.ProcessID, c net.Conn) (connRec, bool) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		_ = c.Close()
		return connRec{}, false
	}
	if _, dup := h.conns[peer]; dup {
		h.mu.Unlock()
		_ = c.Close()
		return connRec{}, false
	}
	rec := connRec{c: c, stop: make(chan struct{}), once: new(sync.Once)}
	h.conns[peer] = rec
	q := h.outbox[peer]
	h.mu.Unlock()
	h.wg.Add(1)
	go h.writer(peer, rec, q)
	return rec, true
}

// dropConn tears one connection down from either side: closes its stop
// channel (waking the other goroutine), removes it from the conn map if
// it is still the registered connection for peer — so a reconnect can
// attach a fresh one — and closes the socket.
func (h *Host) dropConn(peer types.ProcessID, rec connRec) {
	rec.once.Do(func() { close(rec.stop) })
	h.mu.Lock()
	if cur, ok := h.conns[peer]; ok && cur.c == rec.c {
		delete(h.conns, peer)
	}
	h.mu.Unlock()
	_ = rec.c.Close()
}

// writer drains the peer's outbox into batched frames until the host
// closes or the connection fails. On failure the unsent tail is re-queued
// and the connection unregistered, so a reconnect resumes the stream.
func (h *Host) writer(peer types.ProcessID, rec connRec, q *outbox) {
	defer h.wg.Done()
	defer h.dropConn(peer, rec)
	st := &h.stats[peer]
	var frame []byte
	var batch []envelope
	for {
		batch = q.drain(batch)
		if len(batch) > 0 {
			var ok bool
			frame, ok = h.writeBatch(rec.c, st, q, batch, frame)
			if !ok {
				return
			}
		}
		select {
		case <-h.done:
			return
		case <-rec.stop: // reader saw the connection die
			return
		case <-q.wake:
		}
	}
}

// writeBatch encodes batch into one or more frames (each closed once its
// payload exceeds batchSoftLimit) and writes each with a single Write.
// Each frame is built in place in the reusable buffer frame, the header
// first, so the bytes are written without a copy. Each message is encoded
// once, behind a one-byte length prefix that is widened in place when the
// record is 128 bytes or more.
// On a write error it re-queues the envelopes of the failed frame and
// everything after it — the "unsent tail" — at the front of the outbox
// and reports false. An unencodable message is counted and skipped.
func (h *Host) writeBatch(c net.Conn, st *peerCounters, q *outbox, batch []envelope,
	frame []byte) ([]byte, bool) {
	i := 0
	for i < len(batch) {
		frameStart := i
		frame = append(frame[:0], frameBatch, 0, 0, 0, 0) // length patched below
		msgs := 0
		for i < len(batch) && len(frame)-frameHeaderSize < batchSoftLimit {
			msg := batch[i].Msg
			i++
			mark := len(frame)
			var err error
			frame, err = wire.Append(append(frame, 0), msg)
			if err != nil {
				frame = frame[:mark]
				st.encodeErrs.Add(1)
				continue
			}
			frame = putRecordLen(frame, mark)
			msgs++
		}
		if msgs == 0 {
			continue
		}
		binary.BigEndian.PutUint32(frame[1:frameHeaderSize], uint32(len(frame)-frameHeaderSize))
		if _, err := c.Write(frame); err != nil {
			st.writeErrs.Add(1)
			tail := make([]envelope, len(batch)-frameStart)
			copy(tail, batch[frameStart:])
			st.requeued.Add(uint64(len(tail)))
			q.requeue(tail)
			return frame, false
		}
		st.frames.Add(1)
		st.msgs.Add(uint64(msgs))
		st.bytes.Add(uint64(len(frame)))
	}
	return frame, true
}

// putRecordLen writes the length prefix of the record that starts at
// frame[mark]: one reserved byte, then the encoded message. A length of
// 128 or more needs a wider uvarint, so the message moves up to make room.
func putRecordLen(frame []byte, mark int) []byte {
	n := len(frame) - mark - 1
	w := wire.UvarintSize(uint64(n))
	if w > 1 {
		frame = append(frame, make([]byte, w-1)...)
		copy(frame[mark+w:], frame[mark+1:len(frame)-(w-1)])
	}
	binary.PutUvarint(frame[mark:], uint64(n))
	return frame
}

// readLoop decodes batch frames into the inbox until the connection dies
// or a protocol violation (any frame type but batch, malformed batch,
// oversized payload) forces the connection closed.
func (h *Host) readLoop(peer types.ProcessID, br *bufio.Reader, rec connRec) {
	defer h.dropConn(peer, rec)
	var hdr [frameHeaderSize]byte
	var payload []byte
	for {
		var typ byte
		var err error
		typ, payload, err = readFrame(br, &hdr, payload)
		if err != nil || typ != frameBatch {
			return // dead connection, hello after handshake, or garbage
		}
		h.recvBytes.Add(uint64(len(payload) + frameHeaderSize))
		alive := true
		err = decodeBatch(payload, func(msg sim.Message) bool {
			h.recvMsgs.Add(1)
			select {
			case h.inbox <- envelope{From: peer, Msg: msg}:
				return true
			case <-h.done:
				alive = false
				return false
			}
		})
		if err != nil || !alive {
			return
		}
	}
}

// decodeBatch walks a batch frame body — a sequence of [uvarint length]
// [encoded message] records — handing each decoded message to emit. Any
// malformed record (bad varint, length past the body, codec error,
// trailing bytes inside a record) is an error: the sender is broken or
// hostile and the caller drops the connection. emit returning false
// stops the walk early without error.
func decodeBatch(body []byte, emit func(sim.Message) bool) error {
	rest := body
	for len(rest) > 0 {
		sz, r2, err := wire.ReadUvarint(rest)
		if err != nil {
			return fmt.Errorf("transport: batch record length: %w", err)
		}
		if sz > uint64(len(r2)) {
			return fmt.Errorf("transport: batch record length %d exceeds remaining %d bytes", sz, len(r2))
		}
		msg, leftover, err := wire.Decode(r2[:sz])
		if err != nil {
			return fmt.Errorf("transport: batch record: %w", err)
		}
		if len(leftover) != 0 {
			return fmt.Errorf("transport: %d trailing bytes inside batch record", len(leftover))
		}
		rest = r2[sz:]
		if !emit(msg) {
			return nil
		}
	}
	return nil
}

// Start launches the node loop: Init, then serialized Receive calls.
// All peers must be connected first.
func (h *Host) Start() {
	h.mu.Lock()
	if h.started || h.closed {
		h.mu.Unlock()
		return
	}
	h.started = true
	h.mu.Unlock()

	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		env := hostEnv{h: h}
		h.node.Init(env)
		var self []envelope
		for {
			// Self-sends first; Receive may have produced more, which
			// go to the other array.
			self = h.selfQ.drain(self)
			for _, e := range self {
				h.node.Receive(env, e.From, e.Msg)
			}
			select {
			case <-h.done:
				return
			case e := <-h.inbox:
				h.node.Receive(env, e.From, e.Msg)
			case <-h.selfQ.wake:
			case c := <-h.calls:
				c.fn()
				c.done <- struct{}{}
			}
		}
	}()
}

// Inspect runs fn on the node goroutine, giving tests race-free access to
// node state. It blocks until fn completes (or the host is closed) and
// allocates nothing itself.
func (h *Host) Inspect(fn func()) {
	done := donePool.Get().(chan struct{})
	select {
	case h.calls <- call{fn: fn, done: done}:
		<-done
	case <-h.done:
	}
	donePool.Put(done)
}

// Close shuts the host down, unblocks any sender stuck in outbox
// backpressure, and waits for all goroutines.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	close(h.done)
	_ = h.listener.Close()
	for _, rec := range h.conns {
		_ = rec.c.Close()
	}
	for _, q := range h.outbox {
		if q != nil {
			q.close()
		}
	}
	h.selfQ.close()
	h.mu.Unlock()
	h.wg.Wait()
}

// hostEnv adapts the Host to sim.Env for the node.
type hostEnv struct {
	h *Host
}

var _ sim.Env = hostEnv{}

func (e hostEnv) Self() types.ProcessID { return e.h.self }
func (e hostEnv) N() int                { return e.h.n }

// Now returns microseconds since the host started (wall clock; real
// transports have no virtual time).
func (e hostEnv) Now() sim.VirtualTime {
	return sim.VirtualTime(time.Since(e.h.epoch).Microseconds())
}

// Send enqueues msg for the peer. A full outbox BLOCKS until the writer
// drains (backpressure — see the package comment); a closed host or an
// out-of-range destination drops the message.
func (e hostEnv) Send(to types.ProcessID, msg sim.Message) {
	if to == e.h.self {
		// Local delivery via the unbounded self queue (see the field
		// comment: pushing to the bounded inbox from the node loop could
		// deadlock).
		e.h.selfQ.push(envelope{From: e.h.self, Msg: msg})
		return
	}
	if to < 0 || int(to) >= len(e.h.outbox) {
		return // unknown peer
	}
	e.h.outbox[to].push(envelope{From: e.h.self, Msg: msg})
}

// LocalCluster is a convenience harness: n hosts on loopback, fully wired.
type LocalCluster struct {
	Hosts []*Host
}

// LocalClusterConfig configures NewFloodCluster.
type LocalClusterConfig struct {
	// Deprecated: ignored; a node's Env has no RNG to seed.
	Seed int64
}

// NewLocalCluster builds and wires (but does not start) a loopback mesh
// for the given nodes with default limits. Its seed is deprecated and
// ignored: a node's Env has no RNG to seed.
func NewLocalCluster(nodes []sim.Node, seed int64) (*LocalCluster, error) {
	n := len(nodes)
	hosts := make([]*Host, n)
	for i, nd := range nodes {
		h, err := NewHostConfig(HostConfig{
			Self: types.ProcessID(i),
			N:    n,
			Node: nd,
			Addr: "127.0.0.1:0",
		})
		if err != nil {
			for _, prev := range hosts[:i] {
				if prev != nil {
					prev.Close()
				}
			}
			return nil, err
		}
		hosts[i] = h
	}
	// Lower IDs dial higher IDs.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := hosts[i].Connect(types.ProcessID(j), hosts[j].Addr()); err != nil {
				for _, h := range hosts {
					h.Close()
				}
				return nil, err
			}
		}
	}
	return &LocalCluster{Hosts: hosts}, nil
}

// Start launches every host's node loop.
func (c *LocalCluster) Start() {
	for _, h := range c.Hosts {
		h.Start()
	}
}

// Close shuts every host down.
func (c *LocalCluster) Close() {
	for _, h := range c.Hosts {
		h.Close()
	}
}

// Stats sums every host's traffic counters.
func (c *LocalCluster) Stats() HostStats {
	var s HostStats
	for _, h := range c.Hosts {
		hs := h.Stats()
		s.FramesSent += hs.FramesSent
		s.MessagesSent += hs.MessagesSent
		s.BytesSent += hs.BytesSent
		s.WriteErrors += hs.WriteErrors
		s.Requeued += hs.Requeued
		s.EncodeErrors += hs.EncodeErrors
		s.MessagesReceived += hs.MessagesReceived
		s.BytesReceived += hs.BytesReceived
	}
	return s
}

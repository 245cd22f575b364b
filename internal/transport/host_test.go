package transport

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

func newTestHost(t *testing.T, self types.ProcessID, n int, cfg HostConfig) *Host {
	t.Helper()
	cfg.Self = self
	cfg.N = n
	cfg.Node = &FloodNode{}
	cfg.Addr = "127.0.0.1:0"
	h, err := NewHostConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// readBatchMsgs reads frames from c until count messages have been
// decoded, returning them in arrival order.
func readBatchMsgs(t *testing.T, c net.Conn, count int) []FloodMsg {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var out []FloodMsg
	var hdr [frameHeaderSize]byte
	var payload []byte
	for len(out) < count {
		typ, p, err := readFrame(c, &hdr, payload)
		if err != nil {
			t.Fatalf("readFrame after %d msgs: %v", len(out), err)
		}
		payload = p
		if typ != frameBatch {
			t.Fatalf("unexpected frame type %#x", typ)
		}
		rest := p
		for len(rest) > 0 {
			sz, r2, err := wire.ReadUvarint(rest)
			if err != nil || sz > uint64(len(r2)) {
				t.Fatalf("bad batch entry: %v", err)
			}
			msg, leftover, err := wire.Decode(r2[:sz])
			if err != nil || len(leftover) != 0 {
				t.Fatalf("decode batch entry: %v", err)
			}
			rest = r2[sz:]
			out = append(out, msg.(FloodMsg))
		}
	}
	return out
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestDoubleDialDeduplicated pins the keep-first connection policy: a
// second dial to an already-connected peer is an error, the duplicate is
// closed, and neither side ends up with two writers for one peer.
func TestDoubleDialDeduplicated(t *testing.T) {
	h0 := newTestHost(t, 0, 2, HostConfig{})
	h1 := newTestHost(t, 1, 2, HostConfig{})
	h1.Start()
	if err := h0.Connect(1, h1.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := h0.Connect(1, h1.Addr()); err == nil {
		t.Fatal("second Connect to same peer should fail")
	}
	if got := h0.Connected(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("h0 connected = %v, want [1]", got)
	}
	// h1's acceptor saw both dials; keep-first must leave exactly one.
	waitUntil(t, 2*time.Second, func() bool {
		got := h1.Connected()
		return len(got) == 1 && got[0] == 0
	})
	time.Sleep(50 * time.Millisecond)
	if got := h1.Connected(); len(got) != 1 {
		t.Fatalf("h1 connected = %v after dup dial, want one conn", got)
	}
	// The surviving connection carries traffic.
	env := hostEnv{h: h0}
	env.Send(1, FloodMsg{Seq: 7})
	fn := h1.node.(*FloodNode)
	waitUntil(t, 2*time.Second, func() bool { return fn.Received.Load() == 1 })
}

// TestDoubleDialRepeated repeats the double dial — two Connects to one
// peer at once, then a third — and requires, every time, that exactly one
// succeeds, that both ends hold exactly one connection, and that it still
// carries a message. (Regression: Connect used to dial and write its hello
// before looking for an existing registration, so the acceptor could keep
// the second connection while the dialler kept the first; each end then
// closed the other's, and with no redial the link stayed down.)
func TestDoubleDialRepeated(t *testing.T) {
	for i := 0; i < 200; i++ {
		h0 := newTestHost(t, 0, 2, HostConfig{})
		h1 := newTestHost(t, 1, 2, HostConfig{})
		h1.Start()
		errs := make(chan error, 2)
		for k := 0; k < 2; k++ {
			go func() { errs <- h0.Connect(1, h1.Addr()) }()
		}
		if e1, e2 := <-errs, <-errs; (e1 == nil) == (e2 == nil) {
			t.Fatalf("iteration %d: concurrent Connects returned %v and %v, want exactly one error", i, e1, e2)
		}
		if err := h0.Connect(1, h1.Addr()); err == nil {
			t.Fatalf("iteration %d: Connect to a connected peer should fail", i)
		}
		hostEnv{h: h0}.Send(1, FloodMsg{Seq: 7})
		fn := h1.node.(*FloodNode)
		waitUntil(t, 2*time.Second, func() bool { return fn.Received.Load() == 1 })
		if got := h0.Connected(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("iteration %d: h0 connected = %v, want [1]", i, got)
		}
		if got := h1.Connected(); len(got) != 1 || got[0] != 0 {
			t.Fatalf("iteration %d: h1 connected = %v, want [0]", i, got)
		}
		h0.Close()
		h1.Close()
	}
}

// TestHelloValidation pins that a connection whose first frame is not a
// well-formed hello for this mesh — bad magic, wrong version, wrong
// cluster size, out-of-range or self peer ID, or not a hello at all — is
// closed without ever being registered.
func TestHelloValidation(t *testing.T) {
	h := newTestHost(t, 0, 4, HostConfig{})

	bad := func(name string, frame []byte) {
		c, err := net.Dial("tcp", h.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(frame); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		// The acceptor must close the connection: our read sees EOF.
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: read = %v, want EOF (conn closed)", name, err)
		}
		if got := h.Connected(); len(got) != 0 {
			t.Fatalf("%s: peer registered from invalid hello: %v", name, got)
		}
	}

	mkFrame := func(typ byte, payload []byte) []byte {
		f := []byte{typ, 0, 0, 0, byte(len(payload))}
		return append(f, payload...)
	}
	badMagic := appendHello(nil, 2, 4)
	badMagic[0] ^= 0xff
	bad("bad magic", mkFrame(frameHello, badMagic))

	badVersion := appendHello(nil, 2, 4)
	badVersion[4]++
	bad("bad version", mkFrame(frameHello, badVersion))

	bad("self id", mkFrame(frameHello, appendHello(nil, 0, 4)))
	bad("out of range", mkFrame(frameHello, appendHello(nil, 9, 4)))
	bad("wrong n", mkFrame(frameHello, appendHello(nil, 2, 5)))
	bad("not a hello", mkFrame(frameBatch, nil))
	bad("truncated", mkFrame(frameHello, []byte{1, 2}))

	// A valid hello does register.
	c, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(mkFrame(frameHello, appendHello(nil, 2, 4))); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		got := h.Connected()
		return len(got) == 1 && got[0] == 2
	})
}

// failingConn passes through to the wrapped conn for the first `allow`
// writes, then fails every write without sending anything.
type failingConn struct {
	net.Conn
	allow  int32
	writes atomic.Int32
}

func (c *failingConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) > c.allow {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(b)
}

// TestWriterRequeueOnError pins satellite 3: when a connection fails
// mid-drain, the writer re-queues the unsent tail (counting it), frees
// the peer slot, and a replacement connection delivers everything that
// was still owed, in order.
func TestWriterRequeueOnError(t *testing.T) {
	h := newTestHost(t, 0, 2, HostConfig{})
	a, b := net.Pipe()
	defer b.Close()
	fc := &failingConn{Conn: a, allow: 1}
	if _, ok := h.registerConn(1, fc); !ok {
		t.Fatal("registerConn refused fresh conn")
	}
	env := hostEnv{h: h}

	// First message goes through the one allowed write.
	env.Send(1, FloodMsg{Seq: 0})
	if got := readBatchMsgs(t, b, 1); got[0].Seq != 0 {
		t.Fatalf("first message Seq = %d, want 0", got[0].Seq)
	}

	// These writes fail; the drained-but-unsent tail must be re-queued,
	// not dropped.
	for seq := uint64(1); seq <= 3; seq++ {
		env.Send(1, FloodMsg{Seq: seq})
	}
	waitUntil(t, 2*time.Second, func() bool {
		return h.PeerStats(1).WriteErrors >= 1 && len(h.Connected()) == 0
	})
	st := h.PeerStats(1)
	if st.Requeued == 0 {
		t.Fatal("no envelopes re-queued after write error")
	}
	waitUntil(t, 2*time.Second, func() bool { return h.outbox[1].len() == 3 })

	// A replacement connection resumes the stream without loss.
	a2, b2 := net.Pipe()
	defer b2.Close()
	if _, ok := h.registerConn(1, a2); !ok {
		t.Fatal("peer slot not freed after writer death")
	}
	got := readBatchMsgs(t, b2, 3)
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Fatalf("replayed message %d has Seq %d, want %d (FIFO broken)", i, m.Seq, i+1)
		}
	}
}

// TestBoundedOutboxBackpressure pins the overflow policy: with a stalled
// reader on the other end, a sender blocks once the bounded outbox is
// full — no drops, no unbounded growth — and resumes when the reader
// drains.
func TestBoundedOutboxBackpressure(t *testing.T) {
	const limit, total = 4, 32
	h := newTestHost(t, 0, 2, HostConfig{OutboxLimit: limit})
	a, b := net.Pipe() // net.Pipe is unbuffered: an unread peer stalls Write
	defer b.Close()
	if _, ok := h.registerConn(1, a); !ok {
		t.Fatal("registerConn failed")
	}
	env := hostEnv{h: h}
	var sent atomic.Int32
	go func() {
		for i := 0; i < total; i++ {
			env.Send(1, FloodMsg{Seq: uint64(i)})
			sent.Add(1)
		}
	}()
	// The sender must stall: at most `limit` queued plus whatever one
	// drain took before the writer blocked on the unread pipe.
	time.Sleep(150 * time.Millisecond)
	if n := sent.Load(); n >= total {
		t.Fatalf("sender never blocked: %d/%d sent with stalled reader", n, total)
	}
	// Draining the reader releases the backpressure; everything arrives
	// in order with nothing dropped.
	got := readBatchMsgs(t, b, total)
	for i, m := range got {
		if m.Seq != uint64(i) {
			t.Fatalf("message %d has Seq %d (order broken)", i, m.Seq)
		}
	}
	waitUntil(t, 2*time.Second, func() bool { return sent.Load() == total })
}

// TestNegativeOutboxLimitRejected: every peer outbox is bounded, so a
// negative limit is a configuration error, reported before the host
// listens.
func TestNegativeOutboxLimitRejected(t *testing.T) {
	h, err := NewHostConfig(HostConfig{N: 2, Addr: "127.0.0.1:0", OutboxLimit: -1})
	if err == nil || h != nil {
		t.Fatalf("NewHostConfig with OutboxLimit -1 = (%v, %v), want an error", h, err)
	}
	if !strings.Contains(err.Error(), "outbox") {
		t.Errorf("error %q does not name the outbox limit", err)
	}
}

// TestCloseUnblocksBackpressure pins that Close releases a sender stuck
// on a full outbox instead of deadlocking shutdown.
func TestCloseUnblocksBackpressure(t *testing.T) {
	const limit = 2
	h := newTestHost(t, 0, 2, HostConfig{OutboxLimit: limit})
	env := hostEnv{h: h}
	unblocked := make(chan struct{})
	go func() {
		for i := 0; i < limit+4; i++ { // no conn: fills, then blocks
			env.Send(1, FloodMsg{Seq: uint64(i)})
		}
		close(unblocked)
	}()
	time.Sleep(50 * time.Millisecond)
	h.Close()
	select {
	case <-unblocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock sender stuck in backpressure")
	}
}

// TestOutboxReusesBuffers pins the alternating outbox arrays: once both
// have grown, a push…drain cycle allocates nothing, and drain clears the
// array it installs, so no written message is kept alive by it.
func TestOutboxReusesBuffers(t *testing.T) {
	const burst = 16
	q := newOutbox(0)
	e := envelope{From: 1, Msg: FloodMsg{Seq: 7}}
	var batch []envelope
	cycle := func() {
		for i := 0; i < burst; i++ {
			q.push(e)
		}
		batch = q.drain(batch)
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a push…drain cycle allocates %.2f objects once warmed, want 0", allocs)
	}
	if len(batch) != burst {
		t.Fatalf("drain returned %d envelopes, want %d", len(batch), burst)
	}
	spare := batch
	if got := q.drain(spare); len(got) != 0 {
		t.Fatalf("drain of an empty outbox returned %d envelopes", len(got))
	}
	for i, e := range spare[:cap(spare)] {
		if e.Msg != nil {
			t.Fatalf("slot %d of the installed array still holds %v after drain", i, e.Msg)
		}
	}
}

// TestInspectAllocs pins that Inspect itself allocates nothing — only the
// caller's closure costs — and that on a closed host it returns at once.
func TestInspectAllocs(t *testing.T) {
	h := newTestHost(t, 0, 1, HostConfig{})
	h.Start()
	calls := 0
	fn := func() { calls++ }
	h.Inspect(fn)
	if allocs := testing.AllocsPerRun(100, func() { h.Inspect(fn) }); allocs != 0 {
		t.Fatalf("Inspect allocates %.2f objects per call, want 0", allocs)
	}
	if calls != 102 {
		t.Fatalf("fn ran %d times, want 102", calls)
	}
	h.Close()
	returned := make(chan struct{})
	go func() {
		h.Inspect(fn)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Inspect on a closed host did not return")
	}
}

// TestSendToUnknownPeerDropped pins that a destination outside [0, n) is
// dropped: no panic, and nothing queued for any peer or for self.
func TestSendToUnknownPeerDropped(t *testing.T) {
	const n = 3
	h := newTestHost(t, 1, n, HostConfig{})
	env := hostEnv{h: h}
	env.Send(-1, FloodMsg{Seq: 1})
	env.Send(n, FloodMsg{Seq: 2})
	if h.outbox[1] != nil {
		t.Fatal("the host has an outbox to itself")
	}
	for p, q := range h.outbox {
		if q != nil && q.len() != 0 {
			t.Fatalf("outbox of peer %d holds %d envelopes, want 0", p, q.len())
		}
	}
	if got := h.selfQ.len(); got != 0 {
		t.Fatalf("self queue holds %d envelopes, want 0", got)
	}
}

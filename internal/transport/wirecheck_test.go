package transport

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/coin"
	"repro/internal/dag"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// TestFrameRoundTrip pins the [type][len][payload] frame layout.
func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	payload := []byte("framed payload")
	go func() {
		_ = writeFrame(a, frameBatch, payload)
	}()
	var hdr [frameHeaderSize]byte
	_ = b.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, got, err := readFrame(b, &hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameBatch || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: type %#x payload %q", typ, got)
	}
}

// TestFrameRejectsOversizedPayload pins the allocation bound: a forged
// length field beyond maxFramePayload is rejected before any allocation.
func TestFrameRejectsOversizedPayload(t *testing.T) {
	hdr := []byte{frameBatch, 0xff, 0xff, 0xff, 0xff}
	var h [frameHeaderSize]byte
	if _, _, err := readFrame(bytes.NewReader(hdr), &h, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestReadFrameDropsOversizedBuffer: read through one loop, a 4 MiB frame
// and then a small one leave the reader holding a small buffer, not the
// 4 MiB one, while a buffer within maxKeptPayload is still reused.
func TestReadFrameDropsOversizedBuffer(t *testing.T) {
	var stream bytes.Buffer
	for _, size := range []int{4 << 20, 100 << 10, 10} {
		if err := writeFrame(&stream, frameBatch, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	var hdr [frameHeaderSize]byte
	var payload []byte
	var caps []int
	for len(caps) < 3 {
		_, p, err := readFrame(&stream, &hdr, payload)
		if err != nil {
			t.Fatal(err)
		}
		payload = p
		caps = append(caps, cap(p))
	}
	if caps[1] > maxKeptPayload {
		t.Fatalf("after a 4 MiB frame and a 100 KiB one the reader keeps %d bytes, want at most %d", caps[1], maxKeptPayload)
	}
	if caps[2] != caps[1] {
		t.Fatalf("a 10-byte frame after a 100 KiB one got a fresh buffer (cap %d -> %d)", caps[1], caps[2])
	}
}

// TestHelloRoundTripAndRejection pins the hello payload layout and its
// validation failures.
func TestHelloRoundTrip(t *testing.T) {
	b := appendHello(nil, 3, 7)
	from, n, err := parseHello(b)
	if err != nil || from != 3 || n != 7 {
		t.Fatalf("hello round trip: %v %v %v", from, n, err)
	}
	for name, mut := range map[string]func([]byte) []byte{
		"short":       func(b []byte) []byte { return b[:3] },
		"bad magic":   func(b []byte) []byte { b[1] ^= 0x40; return b },
		"bad version": func(b []byte) []byte { b[4]++; return b },
		"truncated":   func(b []byte) []byte { return b[:5] },
	} {
		bad := mut(appendHello(nil, 3, 7))
		if _, _, err := parseHello(bad); err == nil {
			t.Errorf("%s hello accepted", name)
		}
	}
}

// captureEnv is a sim.Env that records every send in one shared FIFO.
type captureEnv struct {
	self types.ProcessID
	n    int
	sent *[]capturedMsg
}

type capturedMsg struct {
	from, to types.ProcessID
	msg      sim.Message
}

func (e captureEnv) Self() types.ProcessID { return e.self }
func (e captureEnv) N() int                { return e.n }
func (e captureEnv) Now() sim.VirtualTime  { return 0 }
func (e captureEnv) Send(to types.ProcessID, msg sim.Message) {
	*e.sent = append(*e.sent, capturedMsg{from: e.self, to: to, msg: msg})
}

// broadcastTraffic runs two reliable-broadcast slots among four processes
// and returns one message of each type they put on the wire. The first
// slot's SEND skips one process, which fetches: SEND, ECHO, READY, the
// READY by reference, the fetch and the reply. No ECHO goes to a slot's
// source, so an ECHO by reference goes only between receivers, one of
// which counted the other's ECHO before the SEND came: the second slot's
// SEND reaches process 0 first, and processes 1 and 2 only after 0's
// ECHO, so their ECHOs go to 0 by reference. The types are unexported,
// so this is how a test outside the package gets hold of them.
func broadcastTraffic(t testing.TB) []sim.Message {
	const n = 4
	var sent []capturedMsg
	trust := quorum.NewThreshold(n, 1)
	envs := make([]captureEnv, n)
	nodes := make([]*broadcast.Reliable, n)
	for i := range nodes {
		envs[i] = captureEnv{self: types.ProcessID(i), n: n, sent: &sent}
		nodes[i] = broadcast.NewReliable(types.ProcessID(i), trust, func(sim.Env, broadcast.Slot, broadcast.Payload) {})
	}
	first, second := broadcast.Slot{Src: 3, Seq: 9}, broadcast.Slot{Src: 3, Seq: 10}
	for _, p := range []types.ProcessID{0, 1, 3} {
		broadcast.EquivocateSend(envs[3], p, first, broadcast.Bytes("payload"))
	}
	broadcast.EquivocateSend(envs[3], 0, second, broadcast.Bytes("later"))
	var out []sim.Message
	seen := map[reflect.Type]bool{}
	handled := 0
	drain := func() {
		for ; handled < len(sent); handled++ { // handlers append to sent
			m := sent[handled]
			if typ := reflect.TypeOf(m.msg); !seen[typ] {
				seen[typ] = true
				out = append(out, m.msg)
			}
			nodes[m.to].Handle(envs[m.to], m.from, m.msg)
		}
	}
	drain()
	for _, p := range []types.ProcessID{1, 2} {
		broadcast.EquivocateSend(envs[3], p, second, broadcast.Bytes("later"))
	}
	drain()
	if len(out) != 7 {
		t.Fatalf("two slots put %d message types on the wire, want 7: %v", len(out), out)
	}
	return out
}

// TestEnvelopeSizeMatchesSimMetrics is the transport end of the
// differential wire suite: for each protocol message a consensus node
// actually puts on the wire, the encoded frame a writer emits has
// exactly the length sim.MessageSize charges — the property that makes
// simulated byte metrics equal real wire bytes.
func TestEnvelopeSizeMatchesSimMetrics(t *testing.T) {
	v := &dag.Vertex{
		Source: 1, Round: 2, Block: []string{"tx-a", "tx-b"},
		StrongEdges: []dag.VertexRef{{Source: 0, Round: 1}, {Source: 2, Round: 1}},
		WeakEdges:   []dag.VertexRef{{Source: 3, Round: 0}},
	}
	msgs := []sim.Message{
		rider.VertexPayload{V: v},
		coin.ShareMsg{Wave: 4},
		broadcast.Bytes("payload"),
	}
	msgs = append(msgs, broadcastTraffic(t)...)
	for _, msg := range msgs {
		enc, err := wire.Marshal(msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if got, want := sim.MessageSize(msg), len(enc); got != want {
			t.Errorf("%T: MessageSize %d != encoded length %d", msg, got, want)
		}
		dec, rest, err := wire.Decode(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%T: decode: %v (rest %d)", msg, err, len(rest))
		}
		re, err := wire.Marshal(dec)
		if err != nil {
			t.Fatalf("%T: re-marshal: %v", msg, err)
		}
		if !bytes.Equal(enc, re) {
			t.Errorf("%T: re-encode not byte-identical", msg)
		}
	}
}

// floodOfFrameLen returns a FloodMsg of sequence number seq (below 128)
// whose frame is exactly size bytes.
func floodOfFrameLen(tb testing.TB, seq uint64, size int) FloodMsg {
	tb.Helper()
	for pad := size - 2; pad >= 0; pad-- {
		m := FloodMsg{Seq: seq, Pad: bytes.Repeat([]byte{byte(seq)}, pad)}
		if enc, err := wire.Marshal(m); err == nil && len(enc) == size {
			return m
		}
	}
	tb.Fatalf("no FloodMsg frame is %d bytes", size)
	return FloodMsg{}
}

// recordConn is a net.Conn whose writes land in a buffer.
type recordConn struct {
	net.Conn
	w bytes.Buffer
}

func (c *recordConn) Write(b []byte) (int, error) { return c.w.Write(b) }

// TestWriteBatchPrefixWidthsAndEncodeErrors: messages whose frames sit on
// either side of the 1-, 2- and 3-byte length-prefix boundaries go out as
// [uvarint len][frame] records, byte for byte, and an unencodable message
// among them is dropped alone and counted once.
func TestWriteBatchPrefixWidthsAndEncodeErrors(t *testing.T) {
	var batch []envelope
	var want []byte
	var wantMsgs []sim.Message
	for i, size := range []int{127, 128, 16383, 16384} {
		m := floodOfFrameLen(t, uint64(i), size)
		enc, err := wire.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		want = append(wire.AppendUvarint(want, uint64(len(enc))), enc...)
		wantMsgs = append(wantMsgs, m)
		batch = append(batch, envelope{Msg: m})
		if size == 128 {
			batch = append(batch, envelope{Msg: rider.VertexPayload{}})
		}
	}
	c := &recordConn{}
	var st peerCounters
	if _, ok := (&Host{}).writeBatch(c, &st, nil, batch, nil); !ok {
		t.Fatal("writeBatch failed")
	}
	frame := c.w.Bytes()
	if len(frame) < frameHeaderSize || frame[0] != frameBatch ||
		int(binary.BigEndian.Uint32(frame[1:frameHeaderSize])) != len(frame)-frameHeaderSize {
		t.Fatalf("bad frame header % x", frame[:min(len(frame), frameHeaderSize)])
	}
	body := frame[frameHeaderSize:]
	if !bytes.Equal(body, want) {
		t.Fatalf("batch body is %d bytes, want %d bytes of [uvarint len][frame] records", len(body), len(want))
	}
	var got []sim.Message
	if err := decodeBatch(body, func(m sim.Message) bool { got = append(got, m); return true }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantMsgs) {
		t.Fatalf("decoded %d messages, want the %d encodable ones in order", len(got), len(wantMsgs))
	}
	if e, m := st.encodeErrs.Load(), st.msgs.Load(); e != 1 || m != 4 {
		t.Fatalf("EncodeErrors %d, messages %d; want 1 and 4", e, m)
	}
}

// TestReadLoopClosesOnGarbage pins that a registered peer sending a
// malformed batch gets its connection closed rather than wedging or
// crashing the host.
func TestReadLoopClosesOnGarbage(t *testing.T) {
	h := newTestHost(t, 0, 2, HostConfig{})
	c := helloConn(t, h)
	// A batch whose entry length overruns the payload is a protocol
	// violation; the host must drop the connection.
	if _, err := c.Write([]byte{frameBatch, 0, 0, 0, 1, 0xff}); err != nil {
		t.Fatal(err)
	}
	requireDropped(t, h, c)
}

// TestReadLoopClosesOnFlateFrame pins that frame type 0x03 is not a
// batch: a peer sending a well-formed flate-compressed batch of a valid
// message under it is disconnected, and nothing it sent reaches the node.
func TestReadLoopClosesOnFlateFrame(t *testing.T) {
	h := newTestHost(t, 0, 2, HostConfig{})
	c := helloConn(t, h)
	if err := writeFrame(c, 0x03, deflated(t, floodBatch(t, 1))); err != nil {
		t.Fatal(err)
	}
	requireDropped(t, h, c)
	if n, got := len(h.inbox), h.Stats().MessagesReceived; n != 0 || got != 0 {
		t.Fatalf("flate frame reached the node: inbox %d, received %d", n, got)
	}
}

// TestFloodCompressed pins the cut-off of a flood stream that turns
// compressed mid-way: the plain batch sent before the 0x03 frame reaches
// the node, the compressed batch does not, and the sender is disconnected.
func TestFloodCompressed(t *testing.T) {
	h := newTestHost(t, 0, 2, HostConfig{})
	c := helloConn(t, h)
	if err := writeFrame(c, frameBatch, floodBatch(t, 1)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool { return h.Stats().MessagesReceived == 1 })
	if err := writeFrame(c, 0x03, deflated(t, floodBatch(t, 2))); err != nil {
		t.Fatal(err)
	}
	requireDropped(t, h, c)
	if n, got := len(h.inbox), h.Stats().MessagesReceived; n != 1 || got != 1 {
		t.Fatalf("inbox %d, received %d after one plain and one flate batch, want 1 and 1", n, got)
	}
	if m, ok := (<-h.inbox).Msg.(FloodMsg); !ok || m.Seq != 1 {
		t.Fatalf("delivered %+v, want the plain batch's FloodMsg{Seq: 1}", m)
	}
}

// floodBatch returns a batch frame body holding the one record FloodMsg{Seq: seq}.
func floodBatch(t *testing.T, seq uint64) []byte {
	t.Helper()
	enc, err := wire.Marshal(FloodMsg{Seq: seq})
	if err != nil {
		t.Fatal(err)
	}
	return append(wire.AppendUvarint(nil, uint64(len(enc))), enc...)
}

// deflated returns body flate-compressed.
func deflated(t *testing.T, body []byte) []byte {
	t.Helper()
	var z bytes.Buffer
	fw, err := flate.NewWriter(&z, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = fw.Write(body)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

// helloConn dials h as process 1 of a two-process mesh, sends a valid
// hello, and waits until h has registered the connection.
func helloConn(t *testing.T, h *Host) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := writeFrame(c, frameHello, appendHello(nil, 1, 2)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool { return len(h.Connected()) == 1 })
	return c
}

// requireDropped waits for h to close c and unregister it.
func requireDropped(t *testing.T, h *Host, c net.Conn) {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read = %v, want EOF after a protocol violation", err)
	}
	waitUntil(t, 2*time.Second, func() bool { return len(h.Connected()) == 0 })
}

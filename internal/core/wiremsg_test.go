package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// TestCoreWireRoundTrip is the core slice of the differential wire suite:
// the three wave-tagged control messages round-trip byte-identically and
// the simulator's byte metric equals the frame length.
func TestCoreWireRoundTrip(t *testing.T) {
	for _, wave := range []int{0, 1, 127, 128, 1 << 20} {
		for _, msg := range []sim.Message{
			ackMsg{&ctl{Wave: wave}}, readyMsg{&ctl{Wave: wave}}, confirmMsg{&ctl{Wave: wave}},
		} {
			enc, err := wire.Marshal(msg)
			if err != nil {
				t.Fatalf("%T: %v", msg, err)
			}
			if got := sim.MessageSize(msg); got != len(enc) {
				t.Fatalf("%T(wave=%d): MessageSize %d != wire length %d", msg, wave, got, len(enc))
			}
			dec, rest, err := wire.Decode(enc)
			if err != nil || len(rest) != 0 {
				t.Fatalf("%T: decode: %v", msg, err)
			}
			// By value: the messages point to their body, so == would
			// compare identity.
			if !reflect.DeepEqual(dec, msg) {
				t.Fatalf("%T round trip mutated: %v -> %v", msg, msg, dec)
			}
			re, err := wire.Marshal(dec)
			if err != nil || !bytes.Equal(enc, re) {
				t.Fatalf("%T: re-encode differs", msg)
			}
		}
	}
	// Wave beyond the decode bound is rejected.
	frame := wire.AppendUvarint(nil, wireTagAck)
	frame = wire.AppendUvarint(frame, uint64(wire.MaxRound)+1)
	if _, _, err := wire.Decode(frame); err == nil {
		t.Fatal("oversized wave accepted")
	}
	// ... and a wave the decoder would refuse has no encoding.
	for _, wave := range []int{-1, wire.MaxRound + 1} {
		if _, err := wire.Marshal(confirmMsg{&ctl{Wave: wave}}); err == nil {
			t.Fatalf("wave %d encoded", wave)
		}
	}
}

// countEnv is a sim.Env that counts what a node sends and keeps nothing.
type countEnv struct {
	self types.ProcessID
	n    int
	sent *int
}

func (e countEnv) Self() types.ProcessID             { return e.self }
func (e countEnv) N() int                            { return e.n }
func (e countEnv) Now() sim.VirtualTime              { return 0 }
func (e countEnv) Send(types.ProcessID, sim.Message) { *e.sent++ }

// TestControlMessagesAllocFreeAtHighWave: a control message of wave 1000
// costs no allocation to encode, decode and Receive. A struct holding a
// bare int boxes for free only below 256, so without pointer-shaped
// messages every control send and decode past wave 255 allocated, for the
// life of a replica. The receiving node runs wave 1000's gate from the
// warm-up call on, and its READY and CONFIRM go out once the senders
// complete a quorum.
func TestControlMessagesAllocFreeAtHighWave(t *testing.T) {
	const n, wave = 4, 1000
	for _, msg := range []sim.Message{
		ackMsg{&ctl{Wave: wave}}, readyMsg{&ctl{Wave: wave}}, confirmMsg{&ctl{Wave: wave}},
	} {
		var sent int
		var env sim.Env = countEnv{self: 0, n: n, sent: &sent} // boxed once, not per call
		nd := NewNode(Config{Trust: quorum.NewThreshold(n, 1), Coin: coin.NewPRF(1, n)})
		nd.Init(env)
		buf := make([]byte, 0, 16)
		from := 0
		a := testing.AllocsPerRun(1000, func() {
			var err error
			if buf, err = wire.Append(buf[:0], msg); err != nil {
				t.Fatal(err)
			}
			dec, _, err := wire.Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			nd.Receive(env, types.ProcessID(from), dec)
			from = (from + 1) % n
		})
		if a != 0 {
			t.Errorf("%T at wave %d: encode, decode and Receive allocate %v times", msg, wave, a)
		}
		if _, ok := msg.(ackMsg); !ok && sent < 2 {
			t.Errorf("%T at wave %d: the node sent %d messages, want its round-1 vertex and a gate vote", msg, wave, sent)
		}
	}
}

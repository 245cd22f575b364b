package sim

import (
	"fmt"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

type neither struct{}

// TestMessageSizePrefersWireCodec pins the sizing behind the simulator's
// byte metrics: the exact wire frame length for a registered type, and 0
// for a message with no codec, which the runner counts in no byte metric.
func TestMessageSizePrefersWireCodec(t *testing.T) {
	msg := ping{payload: 300}
	enc, err := wire.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := MessageSize(msg); got != len(enc) {
		t.Fatalf("MessageSize %d, want exact wire length %d", got, len(enc))
	}
	if got := MessageSize(neither{}); got != 0 {
		t.Fatalf("unencodable message sized %d, want 0", got)
	}
}

// sendOnInit sends one message on Init from process 0: to process to, or,
// with bcast, to everyone.
type sendOnInit struct {
	silentNode
	msg   Message
	to    types.ProcessID
	bcast bool
}

func (s sendOnInit) Init(e Env) {
	if s.bcast {
		Multicast(e, Cast{Msg: s.msg})
	} else {
		e.Send(s.to, s.msg)
	}
}

// TestEncodeErrorsCountUnsizedSends: a send to another process of a
// message the codec cannot encode counts one EncodeError per destination
// — 1 for a unicast, n−1 for a broadcast — and nothing else: as on TCP,
// which drops it, it is not sent, has no bytes and no ByType entry, but
// the simulator still delivers it. A self-send needs no codec and counts
// none, nor does a codec'd message. Only sends to another process of an
// encodable message count as sent.
func TestEncodeErrorsCountUnsizedSends(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		msg         Message
		to          types.ProcessID
		bcast       bool
		want, sent  int
		deliveredTo int
	}{
		{neither{}, 1, false, 1, 0, 1},
		{neither{}, 0, false, 0, 0, 1},
		{neither{}, 0, true, n - 1, 0, n},
		{ping{payload: 7}, 0, true, 0, n - 1, n},
	} {
		nodes := []Node{sendOnInit{msg: tc.msg, to: tc.to, bcast: tc.bcast}, silentNode{}, silentNode{}, silentNode{}}
		r := NewRunner(Config{N: n, Seed: 1}, nodes)
		r.Run(0)
		m := r.Metrics()
		if m.EncodeErrors != tc.want {
			t.Errorf("%T (to %v, broadcast %v): EncodeErrors %d, want %d", tc.msg, tc.to, tc.bcast, m.EncodeErrors, tc.want)
		}
		if m.MessagesSent != tc.sent || m.BytesSent != tc.sent*MessageSize(tc.msg) || m.MessagesDelivered != tc.deliveredTo {
			t.Errorf("%T (to %v, broadcast %v): sent %d (%d B), delivered %d; want %d sent and %d delivered",
				tc.msg, tc.to, tc.bcast, m.MessagesSent, m.BytesSent, m.MessagesDelivered, tc.sent, tc.deliveredTo)
		}
		if typed := m.ByType[fmt.Sprintf("%T", tc.msg)]; typed != tc.sent {
			t.Errorf("%T (to %v, broadcast %v): ByType %d, want %d", tc.msg, tc.to, tc.bcast, typed, tc.sent)
		}
	}
}

// boxed is a test message that points to its value.
type boxed struct{ v *int }

func init() {
	wire.Register(wire.TestTagFloor+103, boxed{}, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			return wire.AppendUvarint(dst, uint64(*msg.(boxed).v)), nil
		},
		Decode: func(b []byte) (any, []byte, error) {
			v, rest, err := wire.ReadUvarint(b)
			i := int(v)
			return boxed{&i}, rest, err
		},
	})
}

// keepAll records every message it receives.
type keepAll struct {
	silentNode
	got []Message
}

func (k *keepAll) Receive(_ Env, _ types.ProcessID, msg Message) { k.got = append(k.got, msg) }

// TestDecodeCopies: with decoded copies on, a broadcast reaches every
// other process as a copy decoded from its encoding, with its own pointer
// and the same value, and reaches the sender as sent; a message with no
// codec reaches everyone as sent. With the switch off, everyone gets the
// sender's value.
func TestDecodeCopies(t *testing.T) {
	const n = 3
	t.Cleanup(func() { decodeCopies = false })
	for _, on := range []bool{false, true} {
		decodeCopies = on
		v := 7
		sent := boxed{&v}
		keep := make([]*keepAll, n)
		nodes := make([]Node, n)
		for i := range nodes {
			keep[i] = &keepAll{}
			nodes[i] = keep[i]
		}
		nodes[0] = &sendOnInit{msg: sent, bcast: true}
		keep[0] = nil
		r := NewRunner(Config{N: n, Seed: 1}, nodes)
		r.Run(0)
		for p := 1; p < n; p++ {
			got := keep[p].got[0].(boxed)
			if *got.v != v || (got.v == sent.v) == on {
				t.Fatalf("copies %v: process %d got value %d at %p, sent %d at %p", on, p, *got.v, got.v, v, sent.v)
			}
		}
	}
	decodeCopies = true
	if got := decodedCopy(neither{}); got != (neither{}) {
		t.Fatalf("a message with no codec was copied as %v", got)
	}
	self := boxed{new(int)}
	keep := &keepAll{}
	r := NewRunner(Config{N: 1, Seed: 1}, []Node{keep})
	r.send(0, 0, self)
	r.Run(0)
	if keep.got[0].(boxed).v != self.v {
		t.Fatal("a self-send was copied")
	}
}

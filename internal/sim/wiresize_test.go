package sim

import (
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

type neither struct{}

// TestMessageSizePrefersWireCodec pins the sizing behind the simulator's
// byte metrics: the exact wire frame length for a registered type, and 1
// for a message with no codec.
func TestMessageSizePrefersWireCodec(t *testing.T) {
	msg := ping{payload: 300}
	enc, err := wire.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := MessageSize(msg); got != len(enc) {
		t.Fatalf("MessageSize %d, want exact wire length %d", got, len(enc))
	}
	if got := MessageSize(neither{}); got != 1 {
		t.Fatalf("default size returned %d, want 1", got)
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
		e.Broadcast(s.msg)
	} else {
		e.Send(s.to, s.msg)
	}
}

// TestEncodeErrorsCountUnsizedSends: a send to another process of a
// message the codec cannot encode counts one EncodeError per destination
// — 1 for a unicast, n−1 for a broadcast — and is still delivered as a
// 1-byte message; a self-send needs no codec and counts none, nor does a
// codec'd message. Only sends to another process count as sent.
func TestEncodeErrorsCountUnsizedSends(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		msg         Message
		to          types.ProcessID
		bcast       bool
		want, sent  int
		deliveredTo int
	}{
		{neither{}, 1, false, 1, 1, 1},
		{neither{}, 0, false, 0, 0, 1},
		{neither{}, 0, true, n - 1, n - 1, n},
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
	}
}

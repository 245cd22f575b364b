package sim

import (
	"sync"
	"testing"

	"repro/internal/wire"
)

// wireSized is registered with the wire codec AND implements Sizer with a
// deliberately wrong answer, so the test can observe which source
// MessageSize prefers.
type wireSized struct{ V uint64 }

func (wireSized) SimSize() int { return 999 }

// sizerOnly has no wire codec — the pure-simulation fallback path.
type sizerOnly struct{}

func (sizerOnly) SimSize() int { return 17 }

type neither struct{}

// TestMessageSizePrefersWireCodec pins the resolution order behind the
// simulator's byte metrics: exact wire frame length for registered types,
// Sizer approximation otherwise, and 1 for a message with neither.
func TestMessageSizePrefersWireCodec(t *testing.T) {
	registerWireSized()
	msg := wireSized{V: 300}
	enc, err := wire.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := MessageSize(msg); got != len(enc) {
		t.Fatalf("MessageSize %d, want exact wire length %d (not Sizer's 999)", got, len(enc))
	}
	if got := MessageSize(sizerOnly{}); got != 17 {
		t.Fatalf("Sizer fallback returned %d, want 17", got)
	}
	if got := MessageSize(neither{}); got != 1 {
		t.Fatalf("default size returned %d, want 1", got)
	}
}

var registerOnce sync.Once

func registerWireSized() {
	registerOnce.Do(func() {
		wire.Register(1100, wireSized{}, wire.Codec{ // test-local tag range
			Append: func(dst []byte, msg any) ([]byte, error) { return wire.AppendUvarint(dst, msg.(wireSized).V), nil },
			Decode: func(b []byte) (any, []byte, error) {
				v, rest, err := wire.ReadUvarint(b)
				if err != nil {
					return nil, b, err
				}
				return wireSized{V: v}, rest, nil
			},
		})
	})
}

// sendOnInit sends one message on Init, to process 1 or, with bcast, to
// everyone.
type sendOnInit struct {
	silentNode
	msg   Message
	bcast bool
}

func (s sendOnInit) Init(e Env) {
	if s.bcast {
		e.Broadcast(s.msg)
	} else {
		e.Send(1, s.msg)
	}
}

// TestEncodeErrorsCountUnsizedSends: a send of a message that neither
// the codec nor a Sizer can size counts one EncodeError per destination —
// 1 for a unicast, n for a broadcast — and is still delivered as a
// 1-byte message; a Sizer-only or codec'd message counts none.
func TestEncodeErrorsCountUnsizedSends(t *testing.T) {
	registerWireSized()
	const n = 4
	for _, tc := range []struct {
		msg   Message
		bcast bool
		want  int
	}{
		{neither{}, false, 1},
		{neither{}, true, n},
		{sizerOnly{}, true, 0},
		{wireSized{V: 7}, true, 0},
	} {
		nodes := []Node{sendOnInit{msg: tc.msg, bcast: tc.bcast}, silentNode{}, silentNode{}, silentNode{}}
		r := NewRunner(Config{N: n, Seed: 1}, nodes)
		r.Run(0)
		m := r.Metrics()
		if m.EncodeErrors != tc.want {
			t.Errorf("%T (broadcast %v): EncodeErrors %d, want %d", tc.msg, tc.bcast, m.EncodeErrors, tc.want)
		}
		if m.MessagesDelivered != m.MessagesSent {
			t.Errorf("%T (broadcast %v): delivered %d of %d", tc.msg, tc.bcast, m.MessagesDelivered, m.MessagesSent)
		}
	}
}

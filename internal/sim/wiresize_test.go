package sim

import (
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
// Sizer approximation otherwise, 1 as the last resort.
func TestMessageSizePrefersWireCodec(t *testing.T) {
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

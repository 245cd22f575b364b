package gather

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

func randomPairs(rng *rand.Rand, n int) Pairs {
	p := NewPairs(n)
	for k := 0; k < n; k++ {
		if rng.Intn(2) == 0 {
			raw := make([]byte, rng.Intn(40))
			rng.Read(raw)
			p.Set(types.ProcessID(k), string(raw))
		}
	}
	return p
}

// roundTrip marshals msg, checks the simulator's byte metric against the
// real frame length, decodes, and checks the re-encoding is byte-identical.
func roundTrip(t *testing.T, msg sim.Message) sim.Message {
	t.Helper()
	enc, err := wire.Marshal(msg)
	if err != nil {
		t.Fatalf("%T: marshal: %v", msg, err)
	}
	if got := sim.MessageSize(msg); got != len(enc) {
		t.Fatalf("%T: MessageSize %d != wire length %d", msg, got, len(enc))
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
		t.Fatalf("%T: re-encode differs:\n  %x\n  %x", msg, enc, re)
	}
	return dec.(sim.Message)
}

// TestGatherWireRoundTrip is the gather slice of the differential wire
// suite: randomized Pairs payloads round-trip byte-identically through
// every DISTRIBUTE message, and the control messages stay zero-body.
func TestGatherWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(40)
		p := randomPairs(rng, n)
		from := types.ProcessID(rng.Intn(n))

		if got := roundTrip(t, distSMsg{From: from, S: p}).(distSMsg); got.From != from || !got.S.ContainsAll(p) || !p.ContainsAll(got.S) {
			t.Fatalf("distS round trip lost pairs")
		}
		if got := roundTrip(t, distTMsg{From: from, T: p}).(distTMsg); got.From != from || !got.T.ContainsAll(p) {
			t.Fatalf("distT round trip lost pairs")
		}
		if got := roundTrip(t, distUMsg{From: from, U: p}).(distUMsg); got.From != from || !got.U.ContainsAll(p) {
			t.Fatalf("distU round trip lost pairs")
		}
		roundTrip(t, Pairs{})
		if got := roundTrip(t, p).(Pairs); !got.ContainsAll(p) || !p.ContainsAll(got) {
			t.Fatalf("bare Pairs round trip lost pairs")
		}
	}
	roundTrip(t, ackMsg{})
	roundTrip(t, readyMsg{})
	roundTrip(t, confirmMsg{})

	// The zero Pairs encodes as universe 0 and decodes back to zero.
	enc, err := wire.Marshal(Pairs{})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := wire.Decode(enc)
	if err != nil || !dec.(Pairs).IsZero() {
		t.Fatalf("zero Pairs decoded to %v (%v)", dec, err)
	}
}

// TestGatherWireRejectsMalformed: adversarial Pairs bodies must be
// rejected with an error, not crash the decoder or later set operations.
func TestGatherWireRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty body":        {},
		"huge universe":     wire.AppendUvarint(nil, uint64(maxWireUniverse)+1),
		"truncated words":   wire.AppendUvarint(nil, 100),
		"missing values":    wire.AppendSet(nil, types.NewSetOf(4, 1, 2)),
		"stray sender bits": append(wire.AppendUvarint(nil, 3), 0xFF, 0, 0, 0, 0, 0, 0, 0),
	}
	for name, body := range cases {
		frame := append(wire.AppendUvarint(nil, wireTagPairs), body...)
		if _, _, err := wire.Decode(frame); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

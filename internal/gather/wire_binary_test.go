package gather

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
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
	}
	roundTrip(t, ackMsg{})
	roundTrip(t, readyMsg{})
	roundTrip(t, confirmMsg{})

	// The zero Pairs encodes as universe 0 and decodes back to zero.
	if got := roundTrip(t, distSMsg{From: 1}).(distSMsg); !got.S.IsZero() {
		t.Fatalf("zero Pairs decoded to %v", got.S)
	}
}

// distSFrame is the DISTRIBUTE_S frame from process 0 whose Pairs body is
// body.
func distSFrame(body []byte) []byte {
	return append([]byte{wireTagDistS, 0}, body...)
}

// TestGatherWireRejectsMalformed: adversarial Pairs bodies must be
// rejected with an error, not crash the decoder or later set operations.
func TestGatherWireRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty body":        {},
		"truncated words":   wire.AppendUvarint(nil, 100),
		"missing values":    wire.AppendSet(nil, types.NewSetOf(4, 1, 2)),
		"stray sender bits": append(wire.AppendUvarint(nil, 3), 0xFF, 0, 0, 0, 0, 0, 0, 0),
	}
	for name, body := range cases {
		if _, _, err := wire.Decode(distSFrame(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPairsTravelOnlyInDistribute: a Pairs has no frame of its own, so a
// frame under its old tag 36 is unregistered, and a DISTRIBUTE_S whose
// universe passes wire.MaxUniverse fails with wire.ReadSet's error.
func TestPairsTravelOnlyInDistribute(t *testing.T) {
	huge := wire.AppendUvarint(nil, wire.MaxUniverse+1)
	_, _, readSetErr := wire.ReadSet(huge)
	if readSetErr == nil {
		t.Fatal("ReadSet accepted a universe past wire.MaxUniverse")
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		ok    func(error) bool
		want  string
	}{
		{"bare Pairs", append([]byte{36}, wire.AppendSet(nil, types.NewSetOf(4, 1))...),
			func(err error) bool { return errors.Is(err, wire.ErrUnregistered) }, "wire.ErrUnregistered"},
		{"universe past MaxUniverse", distSFrame(huge),
			func(err error) bool { return err != nil && strings.Contains(err.Error(), readSetErr.Error()) }, readSetErr.Error()},
	} {
		if _, _, err := wire.Decode(tc.frame); !tc.ok(err) {
			t.Errorf("%s: decode error %v, want %s", tc.name, err, tc.want)
		}
	}
}

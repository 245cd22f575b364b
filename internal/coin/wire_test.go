package coin

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// TestShareMsgWire pins the modeled-cost contract: the wire frame carries
// the 48 reserved share bytes, so sim.MessageSize (now wire-exact) still
// prices a coin share at what a real BLS share costs, the size the
// simulator has always charged for it.
func TestShareMsgWire(t *testing.T) {
	msg := ShareMsg{Wave: 9}
	enc, err := wire.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.MessageSize(msg); got != len(enc) {
		t.Fatalf("MessageSize %d != wire length %d", got, len(enc))
	}
	// Frame = tag + wave uvarint + reserved share bytes.
	want := wire.UvarintSize(wireTagShare) + wire.UvarintSize(uint64(msg.Wave)) + shareReservedBytes
	if len(enc) != want {
		t.Fatalf("frame is %d bytes, want %d (48-byte share reserve missing?)", len(enc), want)
	}
	dec, rest, err := wire.Decode(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v", err)
	}
	if dec.(ShareMsg) != msg {
		t.Fatalf("round trip mutated: %v", dec)
	}
	// A body without the reserve is truncated.
	frame := wire.AppendUvarint(nil, wireTagShare)
	frame = wire.AppendUvarint(frame, 9)
	if _, _, err := wire.Decode(frame); err == nil {
		t.Fatal("share without reserved bytes accepted")
	}
	for _, wave := range []int{-1, wire.MaxRound + 1} {
		if _, err := wire.Marshal(ShareMsg{Wave: wave}); err == nil {
			t.Fatalf("share of wave %d encoded", wave)
		}
	}
}

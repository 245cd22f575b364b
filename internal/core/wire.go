// Binary wire codec registration for the consensus control messages (see
// internal/wire for the frame layout). The other message types a consensus
// node puts on the wire — the broadcast SEND/ECHO/READY and fetch
// messages, rider.VertexPayload, coin.ShareMsg — are registered by their
// owning packages.
package core

import (
	"fmt"

	"repro/internal/wire"
)

// Wire tags of the wave gate's ACK, READY and CONFIRM (40–42).
const (
	wireTagAck     = 40
	wireTagReady   = 41
	wireTagConfirm = 42
)

func init() {
	registerWaveMsg(wireTagAck, ackMsg{},
		func(m any) int { return m.(ackMsg).Wave },
		func(w int) any { return ackMsg{ctls.Cut(ctl{Wave: w})} })
	registerWaveMsg(wireTagReady, readyMsg{},
		func(m any) int { return m.(readyMsg).Wave },
		func(w int) any { return readyMsg{ctls.Cut(ctl{Wave: w})} })
	registerWaveMsg(wireTagConfirm, confirmMsg{},
		func(m any) int { return m.(confirmMsg).Wave },
		func(w int) any { return confirmMsg{ctls.Cut(ctl{Wave: w})} })
}

// registerWaveMsg registers one of the three structurally identical
// wave-tagged control messages: [uvarint wave].
func registerWaveMsg(tag uint64, prototype any, get func(any) int, build func(int) any) {
	wire.Register(tag, prototype, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			return wire.AppendInt(dst, get(msg), wire.MaxRound)
		},
		Decode: func(b []byte) (any, []byte, error) {
			w, rest, err := wire.ReadInt(b, wire.MaxRound)
			if err != nil {
				return nil, b, fmt.Errorf("core: wire wave: %w", err)
			}
			return build(w), rest, nil
		},
	})
}

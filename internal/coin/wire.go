// Binary wire codec registration for the coin messages (see
// internal/wire for the frame layout).
package coin

import (
	"fmt"

	"repro/internal/wire"
)

// wireTagShare is ShareMsg's tag.
const wireTagShare = 45

// shareReservedBytes is the space a production wire format reserves for
// the threshold-signature share itself (a BLS share is ~48 bytes). This
// implementation substitutes a PRF for the threshold scheme (see the
// package comment), so the bytes are zero on the wire and skipped on
// decode — but they are carried, so the byte metrics and the transport
// both price a share at what the real protocol would pay.
const shareReservedBytes = 48

func init() {
	wire.Register(wireTagShare, ShareMsg{}, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			dst = wire.AppendInt(dst, msg.(ShareMsg).Wave)
			return append(dst, make([]byte, shareReservedBytes)...), nil
		},
		Decode: func(b []byte) (any, []byte, error) {
			wave, rest, err := wire.ReadInt(b, wire.MaxRound)
			if err != nil {
				return nil, b, fmt.Errorf("coin: wire share wave: %w", err)
			}
			if len(rest) < shareReservedBytes {
				return nil, b, wire.ErrTruncated
			}
			return ShareMsg{Wave: wave}, rest[shareReservedBytes:], nil
		},
	})
}

// Binary wire codec registration for the gather messages (see
// internal/wire for the frame layout).
//
// A Pairs travels only inside the one DISTRIBUTE message, whose body is
// [uvarint level][pairs body], the level 0, 1 or 2 (DISTRIBUTE_S, _T or
// _U; any other level fails Append as it fails Decode); its sender is the
// link's. The pairs body reuses the raw-word bitset
// encoding types.Set already carries: [uvarint universe][raw LE sender
// words][per member, ascending: uvarint len + value bytes]. A universe of 0 encodes
// the zero Pairs. Decoding validates the universe bound and sender-word
// bits — bodies come from the network, possibly from Byzantine peers.
package gather

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/wire"
)

// Wire tags: DISTRIBUTE, then the gate's ACK, READY and CONFIRM.
const (
	wireTagDist    = 30
	wireTagAck     = 33
	wireTagReady   = 34
	wireTagConfirm = 35
)

func init() { registerWireCodecs() }

// appendWire appends p's body.
func (p Pairs) appendWire(dst []byte) []byte {
	if p.IsZero() {
		return wire.AppendUvarint(dst, 0)
	}
	dst = wire.AppendSet(dst, p.senders)
	p.ForEach(func(_ types.ProcessID, v string) bool {
		dst = wire.AppendString(dst, v)
		return true
	})
	return dst
}

// decodePairsWire parses one Pairs body from the front of b.
func decodePairsWire(b []byte) (Pairs, []byte, error) {
	senders, rest, err := wire.ReadSet(b)
	if err != nil {
		return Pairs{}, b, fmt.Errorf("gather: wire Pairs senders: %w", err)
	}
	n := senders.UniverseSize()
	if n == 0 {
		return Pairs{}, rest, nil
	}
	p := NewPairs(n)
	ok := true
	senders.ForEach(func(k types.ProcessID) bool {
		var v string
		v, rest, err = wire.ReadString(rest)
		if err != nil {
			ok = false
			return false
		}
		p.Set(k, v)
		return true
	})
	if !ok {
		return Pairs{}, b, fmt.Errorf("gather: wire Pairs values: %w", err)
	}
	return p, rest, nil
}

// registerEmptyMsg registers a zero-field control message.
func registerEmptyMsg(tag uint64, prototype any, build func() any) {
	wire.Register(tag, prototype, wire.Codec{
		Append: func(dst []byte, _ any) ([]byte, error) { return dst, nil },
		Decode: func(b []byte) (any, []byte, error) { return build(), b, nil },
	})
}

func registerWireCodecs() {
	wire.Register(wireTagDist, distMsg{}, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			m := msg.(distMsg)
			dst, err := wire.AppendInt(dst, m.Level, levelU)
			if err != nil {
				return dst, err
			}
			return m.Set.appendWire(dst), nil
		},
		Decode: func(b []byte) (any, []byte, error) {
			level, rest, err := wire.ReadInt(b, levelU)
			if err != nil {
				return nil, b, err
			}
			p, rest, err := decodePairsWire(rest)
			if err != nil {
				return nil, b, err
			}
			return distMsg{Level: level, Set: p}, rest, nil
		},
	})
	registerEmptyMsg(wireTagAck, ackMsg{}, func() any { return ackMsg{} })
	registerEmptyMsg(wireTagReady, readyMsg{}, func() any { return readyMsg{} })
	registerEmptyMsg(wireTagConfirm, confirmMsg{}, func() any { return confirmMsg{} })
}

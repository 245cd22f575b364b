// Binary wire codec registration for the gather messages (see
// internal/wire for the frame layout).
//
// A Pairs travels only inside a DISTRIBUTE message, whose body is [uvarint
// from][pairs body]. The pairs body reuses the raw-word bitset encoding
// types.Set already carries: [uvarint universe][raw LE sender words][per
// member, ascending: uvarint len + value bytes]. A universe of 0 encodes
// the zero Pairs. Decoding validates the universe bound and sender-word
// bits — bodies come from the network, possibly from Byzantine peers.
package gather

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/wire"
)

// Wire tags: DISTRIBUTE_S/T/U, then the gate's ACK, READY and CONFIRM.
const (
	wireTagDistS   = 30
	wireTagDistT   = 31
	wireTagDistU   = 32
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

// registerPairsMsg registers one of the three structurally identical
// DISTRIBUTE messages.
func registerPairsMsg(tag uint64, prototype any,
	get func(any) (types.ProcessID, Pairs), build func(types.ProcessID, Pairs) any) {
	wire.Register(tag, prototype, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			from, p := get(msg)
			dst = wire.AppendInt(dst, int(from))
			return p.appendWire(dst), nil
		},
		Decode: func(b []byte) (any, []byte, error) {
			from, rest, err := wire.ReadInt(b, wire.MaxUniverse)
			if err != nil {
				return nil, b, err
			}
			p, rest, err := decodePairsWire(rest)
			if err != nil {
				return nil, b, err
			}
			return build(types.ProcessID(from), p), rest, nil
		},
	})
}

// registerEmptyMsg registers a zero-field control message.
func registerEmptyMsg(tag uint64, prototype any, build func() any) {
	wire.Register(tag, prototype, wire.Codec{
		Append: func(dst []byte, _ any) ([]byte, error) { return dst, nil },
		Decode: func(b []byte) (any, []byte, error) { return build(), b, nil },
	})
}

func registerWireCodecs() {
	registerPairsMsg(wireTagDistS, distSMsg{},
		func(m any) (types.ProcessID, Pairs) { s := m.(distSMsg); return s.From, s.S },
		func(from types.ProcessID, p Pairs) any { return distSMsg{From: from, S: p} })
	registerPairsMsg(wireTagDistT, distTMsg{},
		func(m any) (types.ProcessID, Pairs) { s := m.(distTMsg); return s.From, s.T },
		func(from types.ProcessID, p Pairs) any { return distTMsg{From: from, T: p} })
	registerPairsMsg(wireTagDistU, distUMsg{},
		func(m any) (types.ProcessID, Pairs) { s := m.(distUMsg); return s.From, s.U },
		func(from types.ProcessID, p Pairs) any { return distUMsg{From: from, U: p} })
	registerEmptyMsg(wireTagAck, ackMsg{}, func() any { return ackMsg{} })
	registerEmptyMsg(wireTagReady, readyMsg{}, func() any { return readyMsg{} })
	registerEmptyMsg(wireTagConfirm, confirmMsg{}, func() any { return confirmMsg{} })
}

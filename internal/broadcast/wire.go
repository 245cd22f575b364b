// Binary wire codec registration for the broadcast messages (see
// internal/wire for the frame layout).
//
// Every body starts [uvarint slot.Src][uvarint slot.Seq]. SEND and the
// fetch reply follow it with the payload as a nested wire frame, so any
// wire-registered Payload implementation (Bytes here, rider.VertexPayload,
// ...) travels without this package knowing about it; ECHO, READY and the
// fetch request follow it with the 32 raw digest bytes. An ECHO or READY
// by reference (tags 16 and 17) is the slot alone: an ECHO by reference
// names the digest its receiver echoed in the slot, a READY by reference
// the digest its voter echoed to the receiver, which the receiver resolves
// by the voter's ECHO it counted (see "Votes by reference" in the package
// comment). A SEND or fetch
// reply whose payload is not encodable (its type is not wire-registered,
// or its codec declines the value) fails Append: sent to another process
// (a self-send is never encoded), the TCP transport drops it and the
// simulator counts it in sim.Metrics.EncodeErrors, both as an encode error.
package broadcast

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/wire"
)

// Wire tags of this package's messages and payload (10–17).
const (
	wireTagSend     = 10
	wireTagEcho     = 11
	wireTagReady    = 12
	wireTagBytes    = 13
	wireTagFetch    = 14
	wireTagPayload  = 15
	wireTagEchoRef  = 16 // ECHO*: for the digest the receiver echoed
	wireTagReadyRef = 17 // READY*: for the digest the voter echoed to the receiver
)

func init() { registerWireCodecs() }

func appendSlot(dst []byte, s Slot) []byte {
	return wire.AppendUvarint(wire.AppendInt(dst, int(s.Src)), s.Seq)
}

func decodeSlot(b []byte) (Slot, []byte, error) {
	src, rest, err := wire.ReadInt(b, wire.MaxUniverse)
	if err != nil {
		return Slot{}, b, err
	}
	seq, rest, err := wire.ReadUvarint(rest)
	if err != nil {
		return Slot{}, b, err
	}
	return Slot{Src: types.ProcessID(src), Seq: seq}, rest, nil
}

// registerPayloadMsg registers one of the two messages with a SEND body.
func registerPayloadMsg(tag uint64, prototype any, get func(any) *send, wrap func(*send) any) {
	wire.Register(tag, prototype, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			m := get(msg)
			return wire.Append(appendSlot(dst, m.Slot), m.Payload)
		},
		Decode: func(b []byte) (any, []byte, error) {
			s, rest, err := decodeSlot(b)
			if err != nil {
				return nil, b, err
			}
			inner, rest, err := wire.Decode(rest)
			if err != nil {
				return nil, b, err
			}
			p, ok := inner.(Payload)
			if !ok {
				return nil, b, fmt.Errorf("broadcast: wire payload %T does not implement Payload", inner)
			}
			return wrap(newSend(s, p)), rest, nil
		},
	})
}

// registerDigestMsg registers one of the three messages with a vote body.
func registerDigestMsg(tag uint64, prototype any, get func(any) *vote, wrap func(*vote) any) {
	wire.Register(tag, prototype, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			m := get(msg)
			return append(appendSlot(dst, m.Slot), m.Digest[:]...), nil
		},
		Decode: func(b []byte) (any, []byte, error) {
			s, rest, err := decodeSlot(b)
			if err != nil {
				return nil, b, err
			}
			var d Digest
			if len(rest) < len(d) {
				return nil, b, wire.ErrTruncated
			}
			copy(d[:], rest)
			return wrap(newVote(s, d)), rest[len(d):], nil
		},
	})
}

// registerRefMsg registers one of the two votes by reference, whose body
// is the slot alone. A decoded one points at a vote body with a zero
// digest, which no handler reads.
func registerRefMsg(tag uint64, prototype any, get func(any) *vote, wrap func(*vote) any) {
	wire.Register(tag, prototype, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			return appendSlot(dst, get(msg).Slot), nil
		},
		Decode: func(b []byte) (any, []byte, error) {
			s, rest, err := decodeSlot(b)
			if err != nil {
				return nil, b, err
			}
			return wrap(newVote(s, Digest{})), rest, nil
		},
	})
}

func registerWireCodecs() {
	registerPayloadMsg(wireTagSend, sendMsg{},
		func(m any) *send { return m.(sendMsg).send }, func(b *send) any { return sendMsg{b} })
	registerPayloadMsg(wireTagPayload, payloadMsg{},
		func(m any) *send { return m.(payloadMsg).send }, func(b *send) any { return payloadMsg{b} })
	registerDigestMsg(wireTagEcho, echoMsg{},
		func(m any) *vote { return m.(echoMsg).vote }, func(b *vote) any { return echoMsg{b} })
	registerDigestMsg(wireTagReady, readyMsg{},
		func(m any) *vote { return m.(readyMsg).vote }, func(b *vote) any { return readyMsg{b} })
	registerRefMsg(wireTagEchoRef, echoRefMsg{},
		func(m any) *vote { return m.(echoRefMsg).body }, func(b *vote) any { return echoRefMsg{b} })
	registerRefMsg(wireTagReadyRef, readyRefMsg{},
		func(m any) *vote { return m.(readyRefMsg).body }, func(b *vote) any { return readyRefMsg{b} })
	registerDigestMsg(wireTagFetch, fetchMsg{},
		func(m any) *vote { return m.(fetchMsg).vote }, func(b *vote) any { return fetchMsg{b} })
	wire.Register(wireTagBytes, Bytes(nil), wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			return wire.AppendBytes(dst, msg.(Bytes)), nil
		},
		Decode: func(b []byte) (any, []byte, error) {
			v, rest, err := wire.ReadBytes(b)
			if err != nil {
				return nil, b, err
			}
			return Bytes(v), rest, nil
		},
	})
}

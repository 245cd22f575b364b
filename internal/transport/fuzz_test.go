package transport

import (
	"bytes"
	"testing"

	// The protocol packages register their codecs with internal/wire at
	// init; FuzzDecodeBatch needs every one of them loaded.
	_ "repro/internal/broadcast"
	_ "repro/internal/core"
	_ "repro/internal/gather"
	"repro/internal/sim"
	"repro/internal/wire"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it
// must never panic, never hand back a payload over maxFramePayload, and
// must report the header's declared length exactly.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameBatch, 0, 0, 0, 0})
	f.Add([]byte{frameHello, 0, 0, 0, 3, 1, 2, 3})
	f.Add([]byte{frameBatch, 0xFF, 0xFF, 0xFF, 0xFF}) // length over the limit
	f.Add(func() []byte {
		var buf bytes.Buffer
		b, _ := writeFrame(&buf, nil, frameBatch, []byte("payload"))
		_ = b
		return buf.Bytes()
	}())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var hdr [frameHeaderSize]byte
		var payload []byte
		for {
			typ, p, err := readFrame(r, &hdr, payload)
			if err != nil {
				return
			}
			payload = p
			if len(p) > maxFramePayload {
				t.Fatalf("frame type %d payload %d bytes exceeds maxFramePayload", typ, len(p))
			}
		}
	})
}

// FuzzParseHello checks the handshake parser: no panic, and any
// accepted hello carries an in-range cluster size.
func FuzzParseHello(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendHello(nil, 3, 7))
	f.Add(appendHello(nil, 0, wire.MaxUniverse))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x00, 0x00}) // wrong magic

	f.Fuzz(func(t *testing.T, data []byte) {
		from, n, err := parseHello(data)
		if err != nil {
			return
		}
		if n < 0 || n > wire.MaxUniverse {
			t.Fatalf("parseHello accepted cluster size %d", n)
		}
		if int(from) < 0 || int(from) > wire.MaxUniverse {
			t.Fatalf("parseHello accepted process id %d", from)
		}
		// A parsed hello re-encodes to something that parses identically.
		from2, n2, err := parseHello(appendHello(nil, from, n))
		if err != nil || from2 != from || n2 != n {
			t.Fatalf("hello round-trip: (%d,%d) -> (%d,%d), %v", from, n, from2, n2, err)
		}
	})
}

// FuzzDecodeBatch drives the batch-body walker with the real codec
// registry loaded: it must never panic, every emitted message must have
// come from a registered codec (re-marshalable), and a malformed tail
// must surface as an error, not silent truncation.
func FuzzDecodeBatch(f *testing.F) {
	seedBatch := func(msgs ...sim.Message) []byte {
		var body []byte
		for _, m := range msgs {
			enc, err := wire.Marshal(m)
			if err != nil {
				f.Fatalf("marshaling seed: %v", err)
			}
			body = wire.AppendUvarint(body, uint64(len(enc)))
			body = append(body, enc...)
		}
		return body
	}
	f.Add([]byte{})
	f.Add(seedBatch(FloodMsg{Seq: 1, Pad: []byte{9, 9}}))
	f.Add(seedBatch(FloodMsg{Seq: 2}, FloodMsg{Seq: 3, Pad: bytes.Repeat([]byte{7}, 100)}))
	f.Add(seedBatch(broadcastTraffic(f)...))         // SEND, ECHO, READY, fetch and reply of one slot
	f.Add([]byte{0x05, 1, 2})                        // declared length past the body
	f.Add(append(seedBatch(FloodMsg{Seq: 4}), 0x7F)) // valid record then garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		var emitted []sim.Message
		err := decodeBatch(data, func(m sim.Message) bool {
			emitted = append(emitted, m)
			return true
		})
		for _, m := range emitted {
			if _, merr := wire.Marshal(m); merr != nil {
				t.Fatalf("decodeBatch emitted unmarshalable %T: %v", m, merr)
			}
		}
		if err == nil && len(data) > 0 && len(emitted) == 0 {
			t.Fatalf("non-empty body produced no messages and no error")
		}
	})
}

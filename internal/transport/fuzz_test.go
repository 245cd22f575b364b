package transport

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	// The protocol packages register their codecs with internal/wire at
	// init; FuzzDecodeBatch needs every one of them loaded.
	_ "repro/internal/broadcast"
	_ "repro/internal/core"
	"repro/internal/dag"
	_ "repro/internal/gather"
	"repro/internal/rider"
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
		_ = writeFrame(&buf, frameBatch, []byte("payload"))
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

// allocatedBy returns the heap bytes one call of f allocated: the least of
// up to three calls, stopping at the first within limit, so allocations of
// other goroutines cannot push a call over on their own.
func allocatedBy(limit uint64, f func()) uint64 {
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < 3 && least > limit; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzDecodeBatch drives the batch-body walker with the real codec
// registry loaded: it must never panic, every emitted message must have
// come from a registered codec (re-marshalable), and a malformed tail
// must surface as an error, not silent truncation. Decoding L bytes may
// allocate at most 256·L + 64 KiB: every count a decoder reads is chosen
// by the sender, so it must be checked against the bytes that remain, not
// only against a wire.Max* cap.
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
	f.Add(seedBatch(broadcastTraffic(f)...))         // SEND, ECHO, READY, both by reference, fetch and reply
	f.Add([]byte{0x05, 1, 2})                        // declared length past the body
	f.Add(append(seedBatch(FloodMsg{Seq: 4}), 0x7F)) // valid record then garbage
	// A 64-tx vertex of mixed lengths, every eighth tx empty: the block
	// decodes into one string.
	block := make([]string, 64)
	for i := range block {
		if i%8 != 0 {
			block[i] = string(bytes.Repeat([]byte{byte(i)}, i*i%200+1))
		}
	}
	f.Add(seedBatch(rider.VertexPayload{V: &dag.Vertex{Source: 2, Round: 7, Block: block,
		StrongEdges: []dag.VertexRef{{Source: 0, Round: 6}, {Source: 1, Round: 6}, {Source: 3, Round: 6}}}}))

	// Hostile counts: one record per count field of the registered codecs,
	// each at its wire.Max* cap with nothing behind it.
	record := func(frame ...byte) []byte { return append(wire.AppendUvarint(nil, uint64(len(frame))), frame...) }
	maxCount := wire.AppendUvarint(nil, wire.MaxCount)
	maxLen := wire.AppendUvarint(nil, wire.MaxStringLen)
	maxUniverse := wire.AppendUvarint(nil, wire.MaxUniverse)
	const (
		tagSend   = 10 // broadcast SEND: [slot][nested payload frame]
		tagEcho   = 11 // broadcast ECHO: [slot][digest]
		tagReady  = 12 // broadcast READY: [slot][digest]
		tagBytes  = 13 // broadcast.Bytes
		tagEchoR  = 16 // broadcast ECHO by reference: [slot]
		tagReadyR = 17 // broadcast READY by reference: [slot]
		tagDistS  = 30 // gather DISTRIBUTE_S: [from][Pairs body]
		tagVertex = 50 // rider.VertexPayload: [source][round][txs][strong bitmap][weak]
	)
	maxBitmap := wire.AppendUvarint(nil, wire.MaxUniverse/8)
	f.Add(record(append([]byte{tagVertex, 1, 1}, maxCount...)...))                // tx count
	f.Add(record(append([]byte{tagVertex, 1, 1, 0}, maxBitmap...)...))            // strong-edge bitmap length
	f.Add(record(append([]byte{tagVertex, 1, 1, 0, 0}, maxCount...)...))          // weak edge count
	f.Add(record(append([]byte{tagSend, 1, 1, tagVertex, 1, 1}, maxCount...)...)) // tx count, nested in a SEND
	f.Add(record(append([]byte{tagVertex, 1, 1, 1}, maxLen...)...))               // tx string length
	f.Add(record(append([]byte{tagBytes}, maxLen...)...))                         // bytes length
	f.Add(record(append([]byte{wireTagFlood, 0}, maxLen...)...))                  // flood padding length
	f.Add(record(append([]byte{tagDistS, 0}, maxUniverse...)...))                 // set universe
	// Pairs at wire.MaxUniverse with every word present: a legitimate
	// frame whose 16 MiB value table is 131× its bytes.
	f.Add(record(append(append([]byte{tagDistS, 0}, maxUniverse...), make([]byte, wire.MaxUniverse/8)...)...))
	// A vertex whose strong-edge bitmap is all ones at its cap: a
	// legitimate frame of 2^20 strong edges, 128 bytes of edges per
	// bitmap byte.
	ones := append(append([]byte{tagVertex, 1, 1, 0}, maxBitmap...), bytes.Repeat([]byte{0xFF}, wire.MaxUniverse/8)...)
	f.Add(record(append(ones, 0)...))
	// 200 ECHO/READY records, full and by reference: decoding them rolls
	// the shared vote chunk over, inside the bound.
	var votes []byte
	for i := 0; i < 200; i++ {
		tag := []byte{tagEcho, tagReady, tagEchoR, tagReadyR}[i%4]
		frame := wire.AppendUvarint([]byte{tag, byte(i % 4)}, uint64(i)) // [tag][src][seq]
		if tag == tagEcho || tag == tagReady {
			frame = append(frame, bytes.Repeat([]byte{byte(i)}, 32)...) // digest
		}
		votes = append(votes, record(frame...)...)
	}
	f.Add(votes)
	f.Add(record(tagEchoR, 1))              // a vote by reference without its seq
	f.Add(record(tagReadyR, 1, 0x80, 0x00)) // seq 0 in a non-minimal varint
	// 80 SEND records of small Bytes payloads: decoding them rolls the
	// shared SEND carver over, inside the bound.
	var sends []byte
	for i := 0; i < 80; i++ {
		frame := wire.AppendUvarint([]byte{tagSend, byte(i % 4)}, uint64(i)) // [tag][src][seq]
		frame = append(frame, tagBytes, 2, byte(i), 0xee)                    // Bytes payload
		sends = append(sends, record(frame...)...)
	}
	f.Add(sends)
	// Records on either side of each length-prefix width: 1 and 2 bytes,
	// then 2 and 3.
	f.Add(seedBatch(floodOfFrameLen(f, 1, 127), floodOfFrameLen(f, 2, 128)))
	f.Add(seedBatch(floodOfFrameLen(f, 3, 16383), floodOfFrameLen(f, 4, 16384)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var emitted []sim.Message
		var err error
		limit := 256*uint64(len(data)) + 64<<10
		alloc := allocatedBy(limit, func() {
			emitted = emitted[:0]
			err = decodeBatch(data, func(m sim.Message) bool {
				emitted = append(emitted, m)
				return true
			})
		})
		if alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, over the %d-byte bound (%v)", len(data), alloc, limit, err)
		}
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

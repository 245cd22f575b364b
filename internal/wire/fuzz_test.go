package wire_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	_ "repro/internal/broadcast" // registers the broadcast codecs FuzzDecode seeds
	_ "repro/internal/rider"     // registers the vertex codec FuzzDecode seeds
	"repro/internal/types"
	"repro/internal/wire"
)

// FuzzReadPrimitives throws arbitrary bytes at every bounded-decode
// primitive. The contracts under test: no panic on any input, no
// allocation driven by an unvalidated length (errors instead), and a
// successful parse consumes exactly the bytes its re-encoding produces
// (byte-level round trips hold: varints are canonical).
func FuzzReadPrimitives(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(wire.AppendUvarint(nil, 1<<63))
	f.Add(wire.AppendString(nil, "hello"))
	f.Add(wire.AppendString(wire.AppendString(wire.AppendString(wire.AppendUvarint(nil, 3), "ab"), ""), "c"))
	f.Add(wire.AppendBytes(nil, bytes.Repeat([]byte{0xAB}, 300)))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // maximal-width varint
	f.Add(func() []byte {
		s := types.NewSet(70)
		s.Add(0)
		s.Add(69)
		return wire.AppendSet(nil, s)
	}())

	f.Fuzz(func(t *testing.T, b []byte) {
		// consumed checks that a read took exactly enc off the front of in.
		consumed := func(what string, in, rest, enc []byte) {
			if !bytes.Equal(in[:len(in)-len(rest)], enc) {
				t.Fatalf("%s consumed % x, its re-encoding is % x", what, in[:len(in)-len(rest)], enc)
			}
		}
		if v, rest, err := wire.ReadUvarint(b); err == nil {
			consumed("ReadUvarint", b, rest, wire.AppendUvarint(nil, v))
		}
		if v, rest, err := wire.ReadInt(b, 1000); err == nil {
			if v < 0 || v > 1000 {
				t.Fatalf("ReadInt returned %d outside [0, 1000]", v)
			}
			enc, err := wire.AppendInt(nil, v, 1000)
			if err != nil {
				t.Fatalf("AppendInt refused %d: %v", v, err)
			}
			consumed("ReadInt", b, rest, enc)
		}
		if s, rest, err := wire.ReadString(b); err == nil {
			if len(s) > wire.MaxStringLen {
				t.Fatalf("ReadString returned %d bytes, over MaxStringLen", len(s))
			}
			consumed("ReadString", b, rest, wire.AppendString(nil, s))
		}
		// ReadStrings, its count read from the front like a block's: the
		// count and every length are chosen by the sender, so it may
		// allocate only O(len(b)).
		if count, rest, err := wire.ReadInt(b, wire.MaxCount); err == nil {
			var ss []string
			var after []byte
			limit := 32*uint64(len(b)) + 16<<10
			if alloc := allocatedBy(limit, func() { ss, after, err = wire.ReadStrings(rest, count) }); alloc > limit {
				t.Fatalf("ReadStrings of count %d over %d bytes allocated %d bytes", count, len(rest), alloc)
			}
			if err == nil {
				var enc []byte
				for _, s := range ss {
					enc = wire.AppendString(enc, s)
				}
				consumed("ReadStrings", rest, after, enc)
			}
		}
		if p, rest, err := wire.ReadBytes(b); err == nil {
			if len(p) > wire.MaxStringLen {
				t.Fatalf("ReadBytes returned %d bytes, over MaxStringLen", len(p))
			}
			consumed("ReadBytes", b, rest, wire.AppendBytes(nil, p))
		}
		if s, rest, err := wire.ReadSet(b); err == nil {
			if s.UniverseSize() > wire.MaxUniverse {
				t.Fatalf("ReadSet universe %d over MaxUniverse", s.UniverseSize())
			}
			consumed("ReadSet", b, rest, wire.AppendSet(nil, s))
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

// fuzzMsg is a registered codec with a test-local tag so FuzzDecode has a
// real decode path to walk (tag dispatch, nested primitives).
type fuzzMsg struct {
	Seq  uint64
	Name string
	Blob []byte
}

const fuzzMsgTag = 1090

func registerFuzzMsg() {
	wire.Register(fuzzMsgTag, fuzzMsg{}, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			m := msg.(fuzzMsg)
			dst = wire.AppendUvarint(dst, m.Seq)
			dst = wire.AppendString(dst, m.Name)
			return wire.AppendBytes(dst, m.Blob), nil
		},
		Decode: func(b []byte) (any, []byte, error) {
			var m fuzzMsg
			var err error
			if m.Seq, b, err = wire.ReadUvarint(b); err != nil {
				return nil, b, err
			}
			if m.Name, b, err = wire.ReadString(b); err != nil {
				return nil, b, err
			}
			if m.Blob, b, err = wire.ReadBytes(b); err != nil {
				return nil, b, err
			}
			return m, b, nil
		},
	})
}

// FuzzDecode drives the tagged top-level decoder: arbitrary input must
// never panic, and anything that does decode must re-marshal to the very
// bytes it was decoded from: the encoding is canonical, so a digest of the
// bytes is one of the value.
func FuzzDecode(f *testing.F) {
	registerFuzzMsg()
	seed, err := wire.Marshal(fuzzMsg{Seq: 7, Name: "seed", Blob: []byte{1, 2, 3}})
	if err != nil {
		f.Fatalf("marshaling seed: %v", err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	// The broadcast messages (tags 10–15): a slot, then a digest or a
	// nested Bytes payload.
	digest := bytes.Repeat([]byte{0xD1}, 32)
	for _, tag := range []byte{11, 12, 14} { // ECHO, READY, fetch
		f.Add(append([]byte{tag, 3, 9}, digest...))
		f.Add(append([]byte{tag, 3, 9}, digest[:31]...)) // short digest
	}
	for _, tag := range []byte{10, 15} { // SEND, fetch reply
		f.Add([]byte{tag, 3, 9, 13, 2, 'h', 'i'})
		f.Add([]byte{tag, 3, 9, 11, 3, 9}) // nested frame that is no payload
	}
	// Vertex frames (tag 50): [source 1][round][no txs][strong-edge bitmap
	// length k][k bytes][no weak edges]. The first decodes; the decoder
	// rejects the rest.
	vertex := func(round byte, strong ...byte) []byte {
		return append(append([]byte{50, 1, round, 0}, strong...), 0)
	}
	f.Add(vertex(5, 2, 0x05, 0x80))                                                  // sources 0, 2 and 15 at round 4
	f.Add(vertex(5, 2, 0x05, 0x00))                                                  // trailing zero byte
	f.Add(vertex(0, 1, 0x01))                                                        // bitmap on round 0
	f.Add(vertex(5, 5, 0x01))                                                        // k past the frame
	f.Add(vertex(5, append(wire.AppendUvarint(nil, wire.MaxUniverse/8+1), 0xFF)...)) // k past MaxUniverse/8
	f.Add(vertex(5, 0x81, 0x00, 0x01))                                               // non-minimal k

	f.Fuzz(func(t *testing.T, b []byte) {
		msg, rest, err := wire.Decode(b)
		if err != nil {
			return
		}
		enc, err := wire.Marshal(msg)
		if err != nil {
			t.Fatalf("decoded message does not re-marshal: %v", err)
		}
		if took := b[:len(b)-len(rest)]; !bytes.Equal(enc, took) {
			t.Fatalf("%T decoded from % x re-marshals to % x", msg, took, enc)
		}
	})
}

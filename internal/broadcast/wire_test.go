package broadcast

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// unregisteredPayload is a Payload type with no wire codec — the shape
// test-local payloads take in pure-simulation runs.
type unregisteredPayload struct{ K string }

func (p unregisteredPayload) Digest() Digest { return Bytes(p.K).Digest() }

// TestBroadcastWireRoundTrip is the broadcast slice of the differential
// wire suite: the seven messages round-trip byte-identically with
// randomized slots, Bytes payloads and digests, the simulator's byte
// metric equals the frame length, and a payload's digest survives the
// trip. A vote by reference keeps only its slot: it decodes to a body
// with a zero digest.
func TestBroadcastWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		raw := make([]byte, rng.Intn(100))
		rng.Read(raw)
		var d Digest
		rng.Read(d[:])
		slot := Slot{Src: types.ProcessID(rng.Intn(50)), Seq: rng.Uint64() >> uint(rng.Intn(64))}
		for _, msg := range []sim.Message{
			sendMsg{&send{Slot: slot, Payload: Bytes(raw)}},
			payloadMsg{&send{Slot: slot, Payload: Bytes(raw)}},
			echoMsg{&vote{Slot: slot, Digest: d}},
			readyMsg{&vote{Slot: slot, Digest: d}},
			echoRefMsg{&vote{Slot: slot, Digest: d}},
			readyRefMsg{&vote{Slot: slot, Digest: d}},
			fetchMsg{&vote{Slot: slot, Digest: d}},
		} {
			enc, err := wire.Marshal(msg)
			if err != nil {
				t.Fatalf("%T: %v", msg, err)
			}
			if got := sim.MessageSize(msg); got != len(enc) {
				t.Fatalf("%T: MessageSize %d != wire length %d", msg, got, len(enc))
			}
			dec, rest, err := wire.Decode(enc)
			if err != nil || len(rest) != 0 {
				t.Fatalf("%T: decode: %v", msg, err)
			}
			re, err := wire.Marshal(dec)
			if err != nil || !bytes.Equal(enc, re) {
				t.Fatalf("%T: re-encode differs (%v)", msg, err)
			}
			switch m := dec.(type) {
			case sendMsg:
				checkPayload(t, m.Slot, m.Payload, slot, raw)
			case payloadMsg:
				checkPayload(t, m.Slot, m.Payload, slot, raw)
			case echoRefMsg:
				checkRef(t, m.body, slot)
			case readyRefMsg:
				checkRef(t, m.body, slot)
			default:
				// By value: ECHO and READY point to their body, so == would
				// compare identity.
				if !reflect.DeepEqual(dec, msg) {
					t.Fatalf("%T: round trip mutated message", msg)
				}
			}
			if _, _, err := wire.Decode(enc[:len(enc)-1]); err == nil {
				t.Fatalf("%T: truncated frame accepted", msg)
			}
		}
	}
	// A source the decoder would refuse has no encoding.
	for _, src := range []types.ProcessID{-1, wire.MaxUniverse + 1} {
		bad := Slot{Src: src}
		for _, msg := range []sim.Message{sendMsg{&send{Slot: bad, Payload: Bytes("x")}}, echoMsg{&vote{Slot: bad}}, readyRefMsg{&vote{Slot: bad}}} {
			if _, err := wire.Marshal(msg); err == nil {
				t.Fatalf("%T from source %d encoded", msg, src)
			}
		}
	}
}

func checkPayload(t *testing.T, gs Slot, gp Payload, slot Slot, raw []byte) {
	t.Helper()
	if gs != slot || !bytes.Equal([]byte(gp.(Bytes)), raw) || gp.Digest() != Bytes(raw).Digest() {
		t.Fatal("round trip mutated message")
	}
}

func checkRef(t *testing.T, b *vote, slot Slot) {
	t.Helper()
	if *b != (vote{Slot: slot}) {
		t.Fatalf("vote by reference decoded to (%v, %x), want (%v) and no digest", b.Slot, b.Digest[:3], slot)
	}
}

// TestBroadcastWireRefFrames pins the two votes by reference on the wire:
// [tag][src][seq], exactly the full vote's frame without its 32 digest
// bytes, under tags 16 and 17. Every proper prefix of a frame is rejected
// as truncated, and a slot field in more bytes than its minimal varint
// as non-minimal.
func TestBroadcastWireRefFrames(t *testing.T) {
	d := Digest{1, 2, 3}
	for _, slot := range []Slot{{Src: 0, Seq: 0}, {Src: 3, Seq: 127}, {Src: 200, Seq: 1 << 40}} {
		for _, pair := range []struct {
			full, ref sim.Message
			tag       byte
		}{
			{echoMsg{&vote{Slot: slot, Digest: d}}, echoRefMsg{&vote{Slot: slot, Digest: d}}, wireTagEchoRef},
			{readyMsg{&vote{Slot: slot, Digest: d}}, readyRefMsg{&vote{Slot: slot, Digest: d}}, wireTagReadyRef},
		} {
			full, err := wire.Marshal(pair.full)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := wire.Marshal(pair.ref)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := appendSlot(nil, slot)
			want := append([]byte{pair.tag}, body...)
			if !bytes.Equal(ref, want) || len(full)-len(ref) != len(d) || !bytes.Equal(full[1:len(ref)], ref[1:]) {
				t.Fatalf("%T for %v is % x, want % x: %T's frame % x without its digest", pair.ref, slot, ref, want, pair.full, full)
			}
			for k := range ref {
				if _, _, err := wire.Decode(ref[:k]); err == nil {
					t.Fatalf("%T: %d-byte prefix of a %d-byte frame accepted", pair.ref, k, len(ref))
				}
			}
		}
	}
	for _, frame := range [][]byte{
		{wireTagEchoRef, 0x81, 0x00, 1},  // src 1 in two bytes
		{wireTagReadyRef, 1, 0x80, 0x00}, // seq 0 in two bytes
	} {
		if _, _, err := wire.Decode(frame); err != wire.ErrNonMinimal {
			t.Fatalf("% x: decode error %v, want %v", frame, err, wire.ErrNonMinimal)
		}
	}
}

// TestBytesDigest: the digest is that of the wire frame, so it is tied to
// the content and to the type.
func TestBytesDigest(t *testing.T) {
	frame, err := wire.Marshal(Bytes("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if Bytes("abc").Digest() != sha256.Sum256(frame) {
		t.Fatal("Bytes digest is not the SHA-256 of its wire frame")
	}
	if Bytes("abc").Digest() == Bytes("abd").Digest() || Bytes(nil).Digest() == (Digest{}) {
		t.Fatal("digest does not separate contents")
	}
}

// TestBroadcastWireUnregisteredPayloadFallsBack pins the degradation
// contract: a SEND whose payload type has no wire codec is not encodable
// (Marshal fails), and the simulator sizes it as 0 bytes instead of
// panicking. A reliable broadcast of such a payload still delivers in the
// simulator, and the run counts its SEND once per other destination in
// EncodeErrors (the sender's own copy is free); the votes carry only the
// digest, so they encode.
func TestBroadcastWireUnregisteredPayloadFallsBack(t *testing.T) {
	msg := sendMsg{&send{Slot: Slot{Src: 1, Seq: 2}, Payload: unregisteredPayload{K: "abc"}}}
	if _, err := wire.Marshal(msg); err == nil {
		t.Fatal("Marshal succeeded with unregistered payload")
	}
	if got := sim.MessageSize(msg); got != 0 {
		t.Fatalf("MessageSize %d, want 0", got)
	}
	const n = 4
	nodes := reliableCluster(n, quorum.NewThreshold(n, 1), []Payload{unregisteredPayload{K: "abc"}, nil, nil, nil})
	r := sim.NewRunner(sim.Config{N: n, Seed: 1}, nodes)
	r.Run(0)
	for i, nd := range nodes {
		if len(nd.(*bcNode).delivered) != 1 {
			t.Fatalf("node %d delivered %d slots, want 1", i, len(nd.(*bcNode).delivered))
		}
	}
	if got := r.Metrics().EncodeErrors; got != n-1 {
		t.Fatalf("EncodeErrors %d, want %d (one SEND per other destination)", got, n-1)
	}
}

// notAPayload is wire-registered but does not implement Payload.
type notAPayload struct{}

// TestBroadcastWireRejectsNonPayloadInner pins that a nested frame
// decoding to a non-Payload type is rejected.
func TestBroadcastWireRejectsNonPayloadInner(t *testing.T) {
	const tag = 1001 // test-local range
	wire.Register(tag, notAPayload{}, wire.Codec{
		Append: func(dst []byte, _ any) ([]byte, error) { return dst, nil },
		Decode: func(b []byte) (any, []byte, error) { return notAPayload{}, b, nil },
	})
	body := wire.AppendUvarint(nil, 1)   // slot.Src
	body = wire.AppendUvarint(body, 0)   // slot.Seq
	body = wire.AppendUvarint(body, tag) // nested non-Payload frame
	frame := append(wire.AppendUvarint(nil, wireTagSend), body...)
	if _, _, err := wire.Decode(frame); err == nil {
		t.Fatal("non-Payload nested message accepted")
	}
}

// TestDecodedVotesSurviveLaterDecodes guards the receive side of the
// shared vote chunk: four readers decode ECHO and READY frames at once,
// each through more than three chunks' worth, and keep every message.
// Afterwards each message still carries the (slot, digest) it was decoded
// from: no body was handed out twice, and none was written after it was
// handed out.
func TestDecodedVotesSurviveLaterDecodes(t *testing.T) {
	const readers, perReader = 4, 4 * wire.CarveChunk
	type decoded struct {
		msg  sim.Message
		want vote
	}
	frames := make([][][]byte, readers)
	wants := make([][]vote, readers)
	for r := range frames {
		for i := 0; i < perReader; i++ {
			v := vote{Slot: Slot{Src: types.ProcessID(r), Seq: uint64(i)}, Digest: Digest{byte(r), byte(i), byte(i >> 8), 0xee}}
			var msg sim.Message = echoMsg{&v}
			if i%2 == 1 {
				msg = readyMsg{&v}
			}
			enc, err := wire.Marshal(msg)
			if err != nil {
				t.Fatal(err)
			}
			frames[r] = append(frames[r], enc)
			wants[r] = append(wants[r], v)
		}
	}
	kept := make([][]decoded, readers)
	var wg sync.WaitGroup
	for r := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, enc := range frames[r] {
				msg, _, err := wire.Decode(enc)
				if err != nil {
					t.Errorf("reader %d frame %d: %v", r, i, err)
					return
				}
				kept[r] = append(kept[r], decoded{msg, wants[r][i]})
			}
		}()
	}
	wg.Wait()
	for r := range kept {
		for i, k := range kept[r] {
			var got vote
			switch m := k.msg.(type) {
			case echoMsg:
				got = *m.vote
			case readyMsg:
				got = *m.vote
			default:
				t.Fatalf("reader %d frame %d decoded to %T, want a vote", r, i, k.msg)
			}
			if got != k.want {
				t.Fatalf("reader %d: %T decoded for %v now reads (%v, %x), want %x", r, k.msg, k.want.Slot, got.Slot, got.Digest[:4], k.want.Digest[:4])
			}
		}
	}
}

// TestDecodedSendsSurviveLaterDecodes is the same guard for the shared
// SEND carver: four readers decode SEND frames at once, each through
// more than three chunks' worth, and keep every message. Afterwards each
// message still carries the slot and payload it was decoded from.
func TestDecodedSendsSurviveLaterDecodes(t *testing.T) {
	const readers, perReader = 4, 4 * wire.CarveChunk
	frames := make([][][]byte, readers)
	for r := range frames {
		for i := 0; i < perReader; i++ {
			enc, err := wire.Marshal(sendMsg{newSend(Slot{Src: types.ProcessID(r), Seq: uint64(i)}, Bytes{byte(r), byte(i), byte(i >> 8)})})
			if err != nil {
				t.Fatal(err)
			}
			frames[r] = append(frames[r], enc)
		}
	}
	kept := make([][]sim.Message, readers)
	var wg sync.WaitGroup
	for r := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, enc := range frames[r] {
				msg, _, err := wire.Decode(enc)
				if err != nil {
					t.Errorf("reader %d frame %d: %v", r, i, err)
					return
				}
				kept[r] = append(kept[r], msg)
			}
		}()
	}
	wg.Wait()
	for r := range kept {
		for i, msg := range kept[r] {
			m, ok := msg.(sendMsg)
			if !ok {
				t.Fatalf("reader %d frame %d decoded to %T, want a SEND", r, i, msg)
			}
			want := Bytes{byte(r), byte(i), byte(i >> 8)}
			if m.Slot != (Slot{Src: types.ProcessID(r), Seq: uint64(i)}) || !bytes.Equal(m.Payload.(Bytes), want) {
				t.Fatalf("reader %d: SEND decoded for seq %d now reads (%v, %x)", r, i, m.Slot, m.Payload)
			}
		}
	}
}

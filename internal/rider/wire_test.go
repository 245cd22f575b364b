package rider

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/dag"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

func randomRefs(rng *rand.Rand, n int) []dag.VertexRef {
	if n == 0 {
		return nil
	}
	refs := make([]dag.VertexRef, n)
	for i := range refs {
		refs[i] = dag.VertexRef{Source: types.ProcessID(rng.Intn(100)), Round: rng.Intn(1000)}
	}
	return refs
}

// TestVertexWireRoundTrip is the rider slice of the differential wire
// suite: randomized vertices round-trip byte-identically and the
// simulator's byte metric equals the real frame length.
func TestVertexWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		var block []string
		for k, count := 0, rng.Intn(5); k < count; k++ {
			block = append(block, fmt.Sprintf("tx-%d-%d", i, k))
		}
		v := &dag.Vertex{
			Source:      types.ProcessID(rng.Intn(100)),
			Round:       rng.Intn(1000),
			Block:       block,
			StrongEdges: randomRefs(rng, rng.Intn(6)),
			WeakEdges:   randomRefs(rng, rng.Intn(4)),
		}
		msg := VertexPayload{V: v}
		enc, err := wire.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sim.MessageSize(msg); got != len(enc) {
			t.Fatalf("MessageSize %d != wire length %d", got, len(enc))
		}
		dec, rest, err := wire.Decode(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode: %v", err)
		}
		if d := dec.(VertexPayload).Digest(); d != NewVertexPayload(v).Digest() || d != msg.Digest() || d != sha256.Sum256(enc) {
			t.Fatal("digest at creation, of the literal, after the wire and of the frame differ")
		}
		got := dec.(VertexPayload).V
		if got.Source != v.Source || got.Round != v.Round ||
			!reflect.DeepEqual(got.Block, v.Block) ||
			!reflect.DeepEqual(got.StrongEdges, v.StrongEdges) ||
			!reflect.DeepEqual(got.WeakEdges, v.WeakEdges) {
			t.Fatalf("vertex round trip mutated:\n%+v\n%+v", got, v)
		}
		re, err := wire.Marshal(dec)
		if err != nil || !bytes.Equal(enc, re) {
			t.Fatalf("re-encode differs (%v)", err)
		}
	}
}

// blockFrame returns the frame of a vertex with 3 strong edges, 1 weak
// edge and txs txs of txLen bytes each.
func blockFrame(t testing.TB, txs, txLen int) []byte {
	block := make([]string, txs)
	for i := range block {
		block[i] = string(bytes.Repeat([]byte{'a' + byte(i%26)}, txLen))
	}
	v := &dag.Vertex{Source: 1, Round: 4, Block: block,
		StrongEdges: []dag.VertexRef{{Source: 0, Round: 3}, {Source: 1, Round: 3}, {Source: 2, Round: 3}},
		WeakEdges:   []dag.VertexRef{{Source: 3, Round: 2}}}
	enc, err := wire.Marshal(VertexPayload{V: v})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestVertexDecodeAllocsFlat: decoding a SEND that carries a vertex with
// strong and weak edges costs at most four allocations whatever its tx
// count: the vertex, one slice for both edge lists, the block's string
// and its []string. The block is one string, not one per tx; the SEND
// body is cut from the shared carver, and the payload boxes for free.
func TestVertexDecodeAllocsFlat(t *testing.T) {
	allocs := func(txs int) float64 {
		send := append([]byte{10, 1, 4}, blockFrame(t, txs, 8)...) // broadcast SEND, slot.Src 1, slot.Seq 4
		return testing.AllocsPerRun(100, func() {
			if _, _, err := wire.Decode(send); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(64)
	if one != many {
		t.Fatalf("decoding a 1-tx vertex allocates %.0f objects, a 64-tx vertex %.0f", one, many)
	}
	if many > 4 {
		t.Fatalf("decoding a SEND of a vertex allocates %.0f objects, want at most 4", many)
	}
}

// TestVertexDecodeCopiesFrame: the transport reuses a frame's buffer for
// the next frame, so a decoded block must not alias it. Overwriting the
// frame after the decode leaves the block as it was.
func TestVertexDecodeCopiesFrame(t *testing.T) {
	v := &dag.Vertex{Source: 1, Round: 4, Block: []string{"alpha", "", "gamma"},
		StrongEdges: []dag.VertexRef{{Source: 0, Round: 3}}}
	enc, err := wire.Marshal(VertexPayload{V: v})
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := wire.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 'z'
	}
	if got := msg.(VertexPayload).V.Block; !reflect.DeepEqual(got, v.Block) {
		t.Fatalf("block %q changed to %q when the frame was overwritten", v.Block, got)
	}
}

// BenchmarkDecodeVertexBlock decodes one vertex carrying 32 × 1 KiB txs,
// 3 strong edges and a weak one, the block shape of the saturated TCP
// workload.
func BenchmarkDecodeVertexBlock(b *testing.B) {
	enc := blockFrame(b, 32, 1024)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := wire.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// sendEnv keeps the last message a node sends.
type sendEnv struct {
	countEnv
	last sim.Message
}

func (e *sendEnv) Send(_ types.ProcessID, msg sim.Message) { e.last = msg }

// nilVertexSender sends process 1 a SEND whose payload has no vertex.
type nilVertexSender struct{}

func (nilVertexSender) Init(env sim.Env) {
	broadcast.EquivocateSend(env, 1, broadcast.Slot{Src: 0, Seq: 1}, VertexPayload{})
}
func (nilVertexSender) Receive(sim.Env, types.ProcessID, sim.Message) {}

// TestVertexWireNilNotEncodable pins that a payload without a vertex, alone
// or in a SEND, is not encodable, and that the simulator sizes both at 0
// bytes rather than panicking: a Runner delivers each such SEND and counts
// it as one encode error when it crosses a link. Process 1's SEND to itself is free
// and needs no codec.
func TestVertexWireNilNotEncodable(t *testing.T) {
	env := &sendEnv{countEnv: countEnv{n: 2}}
	broadcast.EquivocateSend(env, 1, broadcast.Slot{Src: 0, Seq: 1}, VertexPayload{})
	for _, msg := range []sim.Message{VertexPayload{}, env.last} {
		if _, err := wire.Marshal(msg); err == nil {
			t.Errorf("%T without a vertex marshalled", msg)
		}
		if n := sim.MessageSize(msg); n != 0 {
			t.Errorf("%T without a vertex sized %d, want 0", msg, n)
		}
	}
	r := sim.NewRunner(sim.Config{N: 2}, []sim.Node{nilVertexSender{}, nilVertexSender{}})
	r.Run(0)
	if m := r.Metrics(); m.EncodeErrors != 1 || m.MessagesDelivered != 2 {
		t.Fatalf("EncodeErrors %d, delivered %d; want 1 and 2", m.EncodeErrors, m.MessagesDelivered)
	}
}

// TestVertexWireRejectsMalformed bounds adversarial vertex bodies.
func TestVertexWireRejectsMalformed(t *testing.T) {
	frame := func(body []byte) []byte {
		return append(wire.AppendUvarint(nil, dag.WireTag), body...)
	}
	huge := wire.AppendInt(nil, 1)                   // source
	huge = wire.AppendInt(huge, 1)                   // round
	huge = wire.AppendUvarint(huge, wire.MaxCount+1) // tx count
	over := wire.AppendInt(nil, 1)                   // source
	over = wire.AppendUvarint(over, 1<<30+1)         // round, past dag's bound
	cases := map[string][]byte{
		"empty":          frame(nil),
		"huge tx count":  frame(huge),
		"round too big":  frame(over),
		"truncated refs": frame(append(wire.AppendInt(wire.AppendInt(wire.AppendInt(nil, 1), 1), 0), wire.AppendUvarint(nil, 5)...)),
	}
	for name, b := range cases {
		if _, _, err := wire.Decode(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestVertexWireHostileCounts: a frame whose tx, strong or weak count is
// wire.MaxCount with nothing behind it is rejected before the decoder
// allocates for the count. Each count must fit the bytes that remain, so
// a 6-byte frame cannot make the decoder allocate 16 MiB.
func TestVertexWireHostileCounts(t *testing.T) {
	maxCount := wire.AppendUvarint(nil, wire.MaxCount)
	frames := map[string][]byte{
		"tx count":     append([]byte{dag.WireTag, 1, 1}, maxCount...),
		"strong count": append([]byte{dag.WireTag, 1, 1, 0}, maxCount...),
		"weak count":   append([]byte{dag.WireTag, 1, 1, 0, 0}, maxCount...),
	}
	for name, frame := range frames {
		var err error
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ { // the least of three discounts other goroutines
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err = wire.Decode(frame)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if err == nil {
			t.Errorf("%s: %d-byte frame accepted", name, len(frame))
		}
		if least >= 64<<10 {
			t.Errorf("%s: %d-byte frame allocated %d bytes", name, len(frame), least)
		}
	}
}

// TestVertexDigestCoversContent: changing any of source, round, a tx byte,
// a strong or a weak edge changes the digest, and moving an edge between
// the two lists does too.
func TestVertexDigestCoversContent(t *testing.T) {
	mk := func(edit func(*dag.Vertex)) [32]byte {
		v := &dag.Vertex{Source: 3, Round: 12, Block: []string{"tx-1", "tx-2"},
			StrongEdges: []dag.VertexRef{{Source: 0, Round: 11}, {Source: 2, Round: 11}},
			WeakEdges:   []dag.VertexRef{{Source: 1, Round: 9}}}
		edit(v)
		return NewVertexPayload(v).Digest()
	}
	base := mk(func(*dag.Vertex) {})
	if base != mk(func(*dag.Vertex) {}) || base == ([32]byte{}) {
		t.Fatal("equal vertices must share a non-zero digest")
	}
	edits := map[string]func(*dag.Vertex){
		"source":      func(v *dag.Vertex) { v.Source = 4 },
		"round":       func(v *dag.Vertex) { v.Round = 13 },
		"tx byte":     func(v *dag.Vertex) { v.Block[1] = "tx-3" },
		"tx split":    func(v *dag.Vertex) { v.Block = []string{"tx-1t", "x-2"} },
		"strong edge": func(v *dag.Vertex) { v.StrongEdges[1].Source = 1 },
		"weak edge":   func(v *dag.Vertex) { v.WeakEdges[0].Round = 8 },
		"strong to weak": func(v *dag.Vertex) {
			v.WeakEdges = append(v.StrongEdges[1:], v.WeakEdges...)
			v.StrongEdges = v.StrongEdges[:1]
		},
	}
	for name, edit := range edits {
		if mk(edit) == base {
			t.Errorf("changing the %s does not change the digest", name)
		}
	}
	if (VertexPayload{}).Digest() != ([32]byte{}) {
		t.Error("a payload without a vertex must have the zero digest")
	}
}

// TestVertexDigestSealed: the digest lives in the vertex, sealed from its
// content where a vertex is made, and is computed without writing where
// it was not.
//   - A decoded vertex is sealed with the hash of the bytes its body took,
//     also when the frame has bytes after it, and that is the hash of its
//     re-encoding.
//   - NewVertexPayload seals, so a later change to the vertex leaves its
//     digest as it was.
//   - VertexPayload{V: v} around an unsealed vertex returns the same
//     digest, from several goroutines at once, and stores nothing: change
//     the vertex and its digest follows.
func TestVertexDigestSealed(t *testing.T) {
	mk := func() *dag.Vertex {
		return &dag.Vertex{Source: 2, Round: 9, Block: []string{"tx-1", "tx-2"},
			StrongEdges: []dag.VertexRef{{Source: 0, Round: 8}, {Source: 1, Round: 8}, {Source: 2, Round: 8}},
			WeakEdges:   []dag.VertexRef{{Source: 3, Round: 6}}}
	}
	enc, err := wire.Marshal(VertexPayload{V: mk()})
	if err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(enc)

	msg, rest, err := wire.Decode(append(append([]byte(nil), enc...), 0x01, 0x02))
	if err != nil || len(rest) != 2 {
		t.Fatalf("decode: %v, %d bytes left", err, len(rest))
	}
	dec := msg.(VertexPayload)
	if re, err := wire.Marshal(dec); err != nil || dec.Digest() != want || sha256.Sum256(re) != want {
		t.Fatalf("decoded vertex's digest %x is not that of its re-encoding %x (%v)", dec.Digest(), want, err)
	}
	dec.V.Block[0] = "tx-0"
	if dec.Digest() != want {
		t.Error("the decoder did not seal the digest")
	}

	sealed := mk()
	p := NewVertexPayload(sealed)
	sealed.Block[0] = "tx-0"
	if p.Digest() != want {
		t.Error("NewVertexPayload did not seal the digest")
	}

	u := mk()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if (VertexPayload{V: u}).Digest() != want {
				t.Error("an unsealed vertex's digest differs from its frame's hash")
			}
		}()
	}
	wg.Wait()
	u.Block[0] = "tx-0"
	if (VertexPayload{V: u}).Digest() == want {
		t.Error("Digest stored the digest of an unsealed vertex")
	}
}

// TestVertexWireRejectsNonMinimal: the digest is over the canonical
// encoding, so a SEND whose vertex spells a varint the long way — same
// vertex, other bytes, other hash of the bytes — is rejected whole rather
// than admitted under a second digest.
func TestVertexWireRejectsNonMinimal(t *testing.T) {
	v := &dag.Vertex{Source: 1, Round: 5, Block: []string{"tx"},
		StrongEdges: []dag.VertexRef{{Source: 0, Round: 4}}}
	send := func(round []byte) []byte {
		b := []byte{10, 1, 5} // broadcast SEND, slot.Src 1, slot.Seq 5
		b = append(b, dag.WireTag, 1)
		b = append(b, round...)
		b = append(b, 1, 2, 't', 'x') // one tx
		return append(b, 1, 0, 4, 0)  // one strong edge, no weak edge
	}
	msg, rest, err := wire.Decode(send([]byte{5}))
	if err != nil || len(rest) != 0 {
		t.Fatalf("canonical SEND rejected: %v", err)
	}
	if re, err := wire.Marshal(msg); err != nil || !bytes.Equal(re, send([]byte{5})) {
		t.Fatalf("hand-built SEND is not what the encoder writes (%v)", err)
	}
	if want, _ := wire.Marshal(VertexPayload{V: v}); !bytes.Contains(send([]byte{5}), want) {
		t.Fatal("hand-built SEND does not carry the vertex")
	}
	if _, _, err := wire.Decode(send([]byte{0x85, 0x00})); err == nil {
		t.Fatal("SEND with a non-minimal round varint accepted")
	}
}

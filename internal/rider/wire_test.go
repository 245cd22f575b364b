package rider

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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

// randomStrong returns n strong edges of the shape the codec carries:
// distinct ascending sources below universe, all at round.
func randomStrong(rng *rand.Rand, n, universe, round int) []dag.VertexRef {
	if n == 0 {
		return nil
	}
	srcs := rng.Perm(universe)[:n]
	slices.Sort(srcs)
	refs := make([]dag.VertexRef, n)
	for i, s := range srcs {
		refs[i] = dag.VertexRef{Source: types.ProcessID(s), Round: round}
	}
	return refs
}

// TestVertexWireRoundTrip is the rider slice of the differential wire
// suite: randomized vertices of the shape the codec carries (ascending
// distinct strong sources at Round−1, and Round ≥ 1 wherever there are
// strong edges) round-trip byte-identically and the simulator's byte
// metric equals the real frame length. Sources range up to 5 000, so the
// bitmap's length takes one varint byte or two. The vertices at the
// decoder's bounds come first: round wire.MaxRound, source and weak-edge
// source wire.MaxUniverse, and a tx of wire.MaxStringLen bytes.
func TestVertexWireRoundTrip(t *testing.T) {
	vertices := []*dag.Vertex{
		{Source: wire.MaxUniverse, Round: wire.MaxRound, StrongEdges: []dag.VertexRef{{Source: wire.MaxUniverse - 1, Round: wire.MaxRound - 1}}},
		{Source: 1, Round: 5, Block: []string{string(make([]byte, wire.MaxStringLen))}, WeakEdges: []dag.VertexRef{{Source: wire.MaxUniverse, Round: wire.MaxRound}}},
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		var block []string
		for k, count := 0, rng.Intn(5); k < count; k++ {
			block = append(block, fmt.Sprintf("tx-%d-%d", i, k))
		}
		round := rng.Intn(1000)
		strong := 0
		if round >= 1 {
			strong = rng.Intn(6)
		}
		vertices = append(vertices, &dag.Vertex{
			Source:      types.ProcessID(rng.Intn(100)),
			Round:       round,
			Block:       block,
			StrongEdges: randomStrong(rng, strong, []int{8, 100, 5000}[rng.Intn(3)], round-1),
			WeakEdges:   randomRefs(rng, rng.Intn(4)),
		})
	}
	for _, v := range vertices {
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

// TestVertexWireOutOfShape: a vertex whose strong edges are not distinct
// ascending sources in [0, wire.MaxUniverse), all at Round−1, or with a
// field the decoder refuses, has no wire form: a source, its own or a weak
// edge's, outside [0, wire.MaxUniverse], a round outside [0,
// wire.MaxRound], more than wire.MaxCount txs or weak edges, or a tx
// longer than wire.MaxStringLen. Marshal fails and the digest is the zero
// digest, sealed or not.
func TestVertexWireOutOfShape(t *testing.T) {
	long := string(make([]byte, wire.MaxStringLen+1))
	for name, v := range map[string]*dag.Vertex{
		"duplicate":                    {Source: 1, Round: 5, StrongEdges: []dag.VertexRef{{Source: 0, Round: 4}, {Source: 2, Round: 4}, {Source: 2, Round: 4}}},
		"unordered pair":               {Source: 1, Round: 5, StrongEdges: []dag.VertexRef{{Source: 2, Round: 4}, {Source: 0, Round: 4}}},
		"wrong round":                  {Source: 1, Round: 5, StrongEdges: []dag.VertexRef{{Source: 0, Round: 4}, {Source: 2, Round: 3}}},
		"negative source":              {Source: 1, Round: 5, StrongEdges: []dag.VertexRef{{Source: -1, Round: 4}, {Source: 2, Round: 4}}},
		"source MaxUniverse":           {Source: 1, Round: 5, StrongEdges: []dag.VertexRef{{Source: 0, Round: 4}, {Source: wire.MaxUniverse, Round: 4}}},
		"strong edges, round 0":        {Source: 1, Round: 0, StrongEdges: []dag.VertexRef{{Source: 0, Round: -1}}},
		"weak source -1":               {Source: 1, Round: 5, WeakEdges: []dag.VertexRef{{Source: -1, Round: 2}}},
		"weak round -1":                {Source: 1, Round: 5, WeakEdges: []dag.VertexRef{{Source: 0, Round: -1}}},
		"negative round":               {Source: 1, Round: -1},
		"negative vertex source":       {Source: -1, Round: 5},
		"round past MaxRound":          {Source: 1, Round: wire.MaxRound + 1},
		"source past MaxUniverse":      {Source: wire.MaxUniverse + 1, Round: 5},
		"weak source past MaxUniverse": {Source: 1, Round: 5, WeakEdges: []dag.VertexRef{{Source: wire.MaxUniverse + 1, Round: 2}}},
		"weak round past MaxRound":     {Source: 1, Round: 5, WeakEdges: []dag.VertexRef{{Source: 0, Round: wire.MaxRound + 1}}},
		"tx past MaxStringLen":         {Source: 1, Round: 5, Block: []string{"a", long}},
		"txs past MaxCount":            {Source: 1, Round: 5, Block: make([]string, wire.MaxCount+1)},
		"weak edges past MaxCount":     {Source: 1, Round: 5, WeakEdges: make([]dag.VertexRef, wire.MaxCount+1)},
	} {
		if enc, err := wire.Marshal(VertexPayload{V: v}); err == nil {
			t.Errorf("%s: marshalled to % x", name, enc)
		}
		if d := (VertexPayload{V: v}).Digest(); d != ([32]byte{}) {
			t.Errorf("%s: digest %x, want zero", name, d)
		}
		if d := NewVertexPayload(v).Digest(); d != ([32]byte{}) {
			t.Errorf("%s: sealed digest %x, want zero", name, d)
		}
	}
}

// vertexFrame returns a vertex frame by hand: source 1, the given round,
// no txs, then the strong-edge bytes given, then no weak edges.
func vertexFrame(round byte, strong ...byte) []byte {
	return append(append([]byte{dag.WireTag, 1, round, 0}, strong...), 0)
}

// TestVertexWireBitmap: a strong-edge bitmap decodes to edges in
// ascending source order, all at round−1. A bitmap may name any source
// below wire.MaxUniverse, so a decoded vertex can have a strong edge to a
// source the system does not have; CheckVertex drops it.
func TestVertexWireBitmap(t *testing.T) {
	msg, rest, err := wire.Decode(vertexFrame(5, 2, 0x05, 0x80))
	if err != nil || len(rest) != 0 {
		t.Fatalf("canonical frame rejected: %v", err)
	}
	want := []dag.VertexRef{{Source: 0, Round: 4}, {Source: 2, Round: 4}, {Source: 15, Round: 4}}
	if got := msg.(VertexPayload).V.StrongEdges; !reflect.DeepEqual(got, want) {
		t.Fatalf("strong edges %v, want %v", got, want)
	}
	const n = 4
	slot := broadcast.Slot{Src: 1, Seq: 5}
	for bitmap, ok := range map[byte]bool{0x0b: true, 0x1b: false} { // {0, 1, 3}; {0, 1, 3, 4}
		msg, _, err := wire.Decode(vertexFrame(5, 1, bitmap))
		if err != nil {
			t.Fatal(err)
		}
		s := types.NewSet(n)
		if got := CheckVertex(msg.(VertexPayload).V, slot, &s); got != ok {
			t.Errorf("bitmap %#x at n=%d: CheckVertex %v, want %v", bitmap, n, got, ok)
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

// TestVertexWireRejectsMalformed bounds adversarial vertex bodies. The
// decoder takes only the strong-edge bitmap the encoder writes: not one
// with a trailing zero byte (a second spelling of the same edges), on
// round 0, with a length past the frame or past wire.MaxUniverse/8 (with
// the bytes present), or with its length spelled the long way.
func TestVertexWireRejectsMalformed(t *testing.T) {
	frame := func(body []byte) []byte {
		return append(wire.AppendUvarint(nil, dag.WireTag), body...)
	}
	huge := wire.AppendUvarint(nil, 1)               // source
	huge = wire.AppendUvarint(huge, 1)               // round
	huge = wire.AppendUvarint(huge, wire.MaxCount+1) // tx count
	over := wire.AppendUvarint(nil, 1)               // source
	over = wire.AppendUvarint(over, 1<<30+1)         // round, past dag's bound
	overCap := wire.AppendUvarint(nil, wire.MaxUniverse/8+1)
	overCap = append(overCap, bytes.Repeat([]byte{0xFF}, wire.MaxUniverse/8+1)...)
	cases := map[string][]byte{
		"empty":                frame(nil),
		"huge tx count":        frame(huge),
		"round too big":        frame(over),
		"trailing zero byte":   vertexFrame(5, 2, 0x05, 0x00),
		"bitmap on round 0":    vertexFrame(0, 1, 0x01),
		"k past the frame":     vertexFrame(5, 5, 0x01),
		"k past MaxUniverse/8": vertexFrame(5, overCap...),
		"non-minimal k":        vertexFrame(5, 0x81, 0x00, 0x01),
		"k = 0 spelled long":   vertexFrame(5, 0x80, 0x00),
	}
	for name, b := range cases {
		if _, _, err := wire.Decode(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestVertexWireHostileCounts: a frame whose tx or weak count is
// wire.MaxCount, or whose strong-edge bitmap length is wire.MaxUniverse/8,
// with nothing behind it is rejected before the decoder allocates for the
// count. Each count must fit the bytes that remain, so a 6-byte frame
// cannot make the decoder allocate 16 MiB.
func TestVertexWireHostileCounts(t *testing.T) {
	maxCount := wire.AppendUvarint(nil, wire.MaxCount)
	frames := map[string][]byte{
		"tx count":      append([]byte{dag.WireTag, 1, 1}, maxCount...),
		"bitmap length": append([]byte{dag.WireTag, 1, 1, 0}, wire.AppendUvarint(nil, wire.MaxUniverse/8)...),
		"weak count":    append([]byte{dag.WireTag, 1, 1, 0, 0}, maxCount...),
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
		return append(b, 1, 0x01, 0)  // a 1-byte bitmap, source 0; no weak edge
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

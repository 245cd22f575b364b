// Binary wire codec registration for the DAG vertex payload (see
// internal/wire for the frame layout and tag-range assignments).
//
// A VertexPayload body is [uvarint source][uvarint round][uvarint #txs +
// length-prefixed txs][uvarint #strong + refs][uvarint #weak + refs],
// where a ref is [uvarint source][uvarint round]. Counts and rounds are
// bounded on decode — vertices arrive from the network, possibly from
// Byzantine peers — and a count must also fit the bytes that remain: a
// tx takes at least 1 byte and a ref at least 2, so no count allocates
// more slots than the frame could fill. A block's txs decode through
// wire.ReadStrings as substrings of one copied string, so a decoded vertex
// costs a fixed number of allocations whatever its tx count, and none of
// it aliases the frame buffer the transport reuses. A tx kept past
// delivery keeps its whole block alive (see service.StateMachine).
package rider

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/types"
	"repro/internal/wire"
)

// wireTagVertex is VertexPayload's tag (range 50–59).
const wireTagVertex = 50

// maxWireRound bounds round numbers accepted off the wire.
const maxWireRound = 1 << 30

func init() {
	wire.Register(wireTagVertex, VertexPayload{}, wire.Codec{
		Size:   vertexWireSize,
		Append: appendVertexWire,
		Decode: decodeVertexWire,
	})
}

func refsWireSize(refs []dag.VertexRef) int {
	sz := wire.IntSize(len(refs))
	for _, r := range refs {
		sz += wire.IntSize(int(r.Source)) + wire.IntSize(r.Round)
	}
	return sz
}

func vertexWireSize(msg any) (int, bool) {
	v := msg.(VertexPayload).V
	if v == nil {
		return 0, false // a payload without a vertex is not encodable
	}
	return vertexBodySize(v), true
}

func vertexBodySize(v *dag.Vertex) int {
	sz := wire.IntSize(int(v.Source)) + wire.IntSize(v.Round) + wire.IntSize(len(v.Block))
	for _, tx := range v.Block {
		sz += wire.StringSize(tx)
	}
	return sz + refsWireSize(v.StrongEdges) + refsWireSize(v.WeakEdges)
}

func appendRefsWire(dst []byte, refs []dag.VertexRef) []byte {
	dst = wire.AppendInt(dst, len(refs))
	for _, r := range refs {
		dst = wire.AppendInt(dst, int(r.Source))
		dst = wire.AppendInt(dst, r.Round)
	}
	return dst
}

func appendVertexWire(dst []byte, msg any) ([]byte, error) {
	v := msg.(VertexPayload).V
	if v == nil {
		return dst, fmt.Errorf("rider: cannot encode VertexPayload with nil vertex")
	}
	dst = wire.AppendInt(dst, int(v.Source))
	dst = wire.AppendInt(dst, v.Round)
	dst = wire.AppendInt(dst, len(v.Block))
	for _, tx := range v.Block {
		dst = wire.AppendString(dst, tx)
	}
	dst = appendRefsWire(dst, v.StrongEdges)
	return appendRefsWire(dst, v.WeakEdges), nil
}

func decodeRefsWire(b []byte) ([]dag.VertexRef, []byte, error) {
	count, rest, err := wire.ReadInt(b, wire.MaxCount)
	if err != nil {
		return nil, b, err
	}
	if count > len(rest)/2 {
		return nil, b, wire.ErrTruncated
	}
	if count == 0 {
		return nil, rest, nil
	}
	refs := make([]dag.VertexRef, count)
	for i := range refs {
		var src, round int
		src, rest, err = wire.ReadInt(rest, wire.MaxUniverse)
		if err != nil {
			return nil, b, err
		}
		round, rest, err = wire.ReadInt(rest, maxWireRound)
		if err != nil {
			return nil, b, err
		}
		refs[i] = dag.VertexRef{Source: types.ProcessID(src), Round: round}
	}
	return refs, rest, nil
}

func decodeVertexWire(b []byte) (any, []byte, error) {
	src, rest, err := wire.ReadInt(b, wire.MaxUniverse)
	if err != nil {
		return nil, b, fmt.Errorf("rider: wire vertex source: %w", err)
	}
	round, rest, err := wire.ReadInt(rest, maxWireRound)
	if err != nil {
		return nil, b, fmt.Errorf("rider: wire vertex round: %w", err)
	}
	txCount, rest, err := wire.ReadInt(rest, wire.MaxCount)
	if err != nil {
		return nil, b, fmt.Errorf("rider: wire vertex block: %w", err)
	}
	block, rest, err := wire.ReadStrings(rest, txCount)
	if err != nil {
		return nil, b, fmt.Errorf("rider: wire vertex block: %w", err)
	}
	strong, rest, err := decodeRefsWire(rest)
	if err != nil {
		return nil, b, fmt.Errorf("rider: wire vertex strong edges: %w", err)
	}
	weak, rest, err := decodeRefsWire(rest)
	if err != nil {
		return nil, b, fmt.Errorf("rider: wire vertex weak edges: %w", err)
	}
	p := VertexPayload{V: &dag.Vertex{
		Source:      types.ProcessID(src),
		Round:       round,
		Block:       block,
		StrongEdges: strong,
		WeakEdges:   weak,
	}}
	// The digest is over the canonical encoding, because a fetch reply is
	// always a re-encoding. A non-minimal varint is strictly longer than
	// the minimal one, so the consumed bytes are canonical exactly when
	// they are as many as the encoder would write; anything else is
	// rejected, and the bytes in hand can be hashed as they are.
	body := b[:len(b)-len(rest)]
	if sz := vertexBodySize(p.V); len(body) != sz {
		return nil, b, fmt.Errorf("rider: wire vertex: %d bytes where the canonical encoding has %d", len(body), sz)
	}
	p.sum = wire.BodyDigest(wireTagVertex, body)
	return p, rest, nil
}

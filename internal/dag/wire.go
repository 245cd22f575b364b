// The vertex's wire body and its digest.
//
// A vertex body is [uvarint source][uvarint round][uvarint #txs +
// length-prefixed txs][uvarint #strong + refs][uvarint #weak + refs],
// where a ref is [uvarint source][uvarint round]. internal/rider registers
// it as rider.VertexPayload's codec under WireTag (see internal/wire for
// the frame layout and tag-range assignments). Counts and rounds are
// bounded on decode — vertices arrive from the network, possibly from
// Byzantine peers — and a count must also fit the bytes that remain: a tx
// takes at least 1 byte and a ref at least 2, so no count allocates more
// slots than the frame could fill. A block's txs decode through
// wire.ReadStrings as substrings of one copied string, and both edge lists
// share one slice, so a decoded vertex costs four allocations whatever its
// tx and edge counts, and none of it aliases the frame buffer the
// transport reuses. A tx kept past delivery keeps its whole block alive
// (see service.StateMachine).

package dag

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/types"
	"repro/internal/wire"
)

// WireTag is the wire tag of a vertex frame, [uvarint WireTag][body]: the
// tag rider.VertexPayload registers (rider's range 50–59), and the one a
// vertex's digest covers.
const WireTag = 50

// maxWireRound bounds round numbers accepted off the wire.
const maxWireRound = 1 << 30

// Digest is a vertex's content address: the SHA-256 of its wire frame.
type Digest = [sha256.Size]byte

// Seal stores v's digest in v, computed from v's content, so that every
// later Digest returns it without hashing; a vertex already sealed is left
// as it is. The creator seals a vertex before broadcasting it and must not
// change the vertex after, and DecodeWire seals every vertex it builds.
// These are the only two ways a digest gets into a vertex, and both hash
// the vertex's own content.
func (v *Vertex) Seal() {
	if v.sum == (Digest{}) {
		v.sum = v.digest()
	}
}

// Digest returns v's digest: the sealed one, or else one computed now
// from v's content, without writing v — the simulator hands one vertex to
// every node, possibly to several at once.
func (v *Vertex) Digest() Digest {
	if v.sum != (Digest{}) {
		return v.sum
	}
	return v.digest()
}

// bodyPool recycles the buffers digest encodes into, so hashing a block
// allocates nothing of the block's size.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// digest hashes v's encoding.
func (v *Vertex) digest() Digest {
	bp := bodyPool.Get().(*[]byte)
	body := AppendWire((*bp)[:0], v)
	sum := wire.BodyDigest(WireTag, body)
	*bp = body[:0]
	bodyPool.Put(bp)
	return sum
}

// AppendWire appends v's wire body to dst.
func AppendWire(dst []byte, v *Vertex) []byte {
	dst = wire.AppendInt(dst, int(v.Source))
	dst = wire.AppendInt(dst, v.Round)
	dst = wire.AppendInt(dst, len(v.Block))
	for _, tx := range v.Block {
		dst = wire.AppendString(dst, tx)
	}
	dst = appendRefsWire(dst, v.StrongEdges)
	return appendRefsWire(dst, v.WeakEdges)
}

func appendRefsWire(dst []byte, refs []VertexRef) []byte {
	dst = wire.AppendInt(dst, len(refs))
	for _, r := range refs {
		dst = wire.AppendInt(dst, int(r.Source))
		dst = wire.AppendInt(dst, r.Round)
	}
	return dst
}

// DecodeWire parses one vertex body from the front of b and returns the
// vertex, sealed, and the bytes after the body.
//
// The digest is over the canonical encoding, because a fetch reply is
// always a re-encoding. wire.ReadUvarint rejects every non-minimal varint,
// so the bytes a body decodes from are the bytes the encoder would write,
// and they are hashed as they are, once.
func DecodeWire(b []byte) (*Vertex, []byte, error) {
	src, rest, err := wire.ReadInt(b, wire.MaxUniverse)
	if err != nil {
		return nil, b, fmt.Errorf("dag: wire vertex source: %w", err)
	}
	round, rest, err := wire.ReadInt(rest, maxWireRound)
	if err != nil {
		return nil, b, fmt.Errorf("dag: wire vertex round: %w", err)
	}
	txCount, rest, err := wire.ReadInt(rest, wire.MaxCount)
	if err != nil {
		return nil, b, fmt.Errorf("dag: wire vertex block: %w", err)
	}
	block, rest, err := wire.ReadStrings(rest, txCount)
	if err != nil {
		return nil, b, fmt.Errorf("dag: wire vertex block: %w", err)
	}
	strong, weakRefs, err := checkRefsWire(rest)
	if err != nil {
		return nil, b, fmt.Errorf("dag: wire vertex strong edges: %w", err)
	}
	weak, end, err := checkRefsWire(weakRefs)
	if err != nil {
		return nil, b, fmt.Errorf("dag: wire vertex weak edges: %w", err)
	}
	v := &Vertex{Source: types.ProcessID(src), Round: round, Block: block}
	if strong+weak > 0 {
		edges := make([]VertexRef, strong+weak)
		readRefsWire(edges[:strong], rest)
		readRefsWire(edges[strong:], weakRefs)
		if strong > 0 {
			v.StrongEdges = edges[:strong:strong]
		}
		if weak > 0 {
			v.WeakEdges = edges[strong:]
		}
	}
	v.sum = wire.BodyDigest(WireTag, b[:len(b)-len(end)])
	return v, end, nil
}

// checkRefsWire validates one edge list at the front of b without
// allocating, and returns its count and the bytes after it.
func checkRefsWire(b []byte) (int, []byte, error) {
	count, rest, err := wire.ReadInt(b, wire.MaxCount)
	if err != nil {
		return 0, b, err
	}
	if count > len(rest)/2 {
		return 0, b, wire.ErrTruncated
	}
	for i := 0; i < count; i++ {
		if _, rest, err = wire.ReadInt(rest, wire.MaxUniverse); err != nil {
			return 0, b, err
		}
		if _, rest, err = wire.ReadInt(rest, maxWireRound); err != nil {
			return 0, b, err
		}
	}
	return count, rest, nil
}

// readRefsWire decodes into refs the edge list at the front of b, which
// checkRefsWire validated and found len(refs) long.
func readRefsWire(refs []VertexRef, b []byte) {
	_, b, _ = wire.ReadUvarint(b) // the count
	for i := range refs {
		var src, round uint64
		src, b, _ = wire.ReadUvarint(b)
		round, b, _ = wire.ReadUvarint(b)
		refs[i] = VertexRef{Source: types.ProcessID(src), Round: int(round)}
	}
}

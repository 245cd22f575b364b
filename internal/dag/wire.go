// The vertex's wire body and its digest.
//
// A vertex body is [uvarint source][uvarint round][uvarint #txs +
// length-prefixed txs][uvarint k + k bitmap bytes][uvarint #weak + refs],
// where a weak ref is [uvarint source][uvarint round]. internal/rider
// registers it as rider.VertexPayload's codec under WireTag (see
// internal/wire for the frame layout).
//
// Every strong edge of a round-r vertex points into round r−1 (Algorithm 4;
// rider.CheckVertex rejects any other shape), so the body names only their
// sources, as a bitmap: bit j of byte i is source 8i+j, the LSB-first
// layout of types.Set's words. k is 0 when there are no strong edges, and
// otherwise the last byte is non-zero. A vertex whose strong edges are not
// distinct ascending sources in [0, wire.MaxUniverse), all at Round−1, has
// no wire form, and neither has one the decoder would refuse: a source, its
// own or a weak edge's, outside [0, wire.MaxUniverse], a round outside [0,
// wire.MaxRound], more than wire.MaxCount txs or weak edges, or a tx longer
// than wire.MaxStringLen. AppendWire reports an error and its digest is the
// zero digest, which a payload without a vertex already has. So every frame
// the encoder writes decodes. That costs nothing a correct process needs: a
// correct vertex names sources in [0, n) and rounds far below
// wire.MaxRound, a block past the count or length bound could not cross a
// link before either, as no receiver decodes it, and every other such
// vertex fails CheckVertex. A Byzantine process can hand such a vertex to
// the others in process, as the simulator does, so hashing it must not
// panic.
//
// Counts and rounds are bounded on decode — vertices arrive from the
// network, possibly from Byzantine peers. k is at most wire.MaxUniverse/8,
// a bitmap on round 0 is rejected, and a count must fit the bytes that
// remain: a tx takes at least 1 byte, a bitmap byte at most 8 strong edges
// and a weak ref at least 2 bytes, so no count allocates more slots than
// the frame could fill. A block's txs decode through wire.ReadStrings as
// substrings of one copied string, and both edge lists share one slice,
// the strong edges in ascending source order, so a decoded vertex costs
// four allocations whatever its tx and edge counts, and none of it aliases
// the frame buffer the transport reuses. A tx kept past delivery keeps its
// whole block alive (see service.StateMachine).
//
// The encoding is canonical: varints are minimal, the bitmap has no
// trailing zero byte and the strong edges' order and round are implied,
// so a vertex has one body, and its digest is the hash of that body.

package dag

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/types"
	"repro/internal/wire"
)

// WireTag is the wire tag of a vertex frame, [uvarint WireTag][body]: the
// tag rider.VertexPayload registers, and the one a vertex's digest covers.
const WireTag = 50

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

// digest hashes v's encoding, or returns the zero digest if v has none.
func (v *Vertex) digest() Digest {
	bp := bodyPool.Get().(*[]byte)
	body, err := AppendWire((*bp)[:0], v)
	var sum Digest
	if err == nil {
		sum = wire.BodyDigest(WireTag, body)
	}
	*bp = body[:0]
	bodyPool.Put(bp)
	return sum
}

// errStrongShape reports a vertex whose strong edges have no wire form.
var errStrongShape = errors.New("dag: strong edges are not distinct ascending sources at round−1")

// errOutOfBounds reports a vertex with a field outside the bounds
// DecodeWire enforces.
var errOutOfBounds = errors.New("dag: source, round, count or tx length outside the wire bounds")

// AppendWire appends v's wire body to dst. It reports an error, and
// appends nothing, if v's strong edges are not distinct ascending sources
// in [0, wire.MaxUniverse), all at v.Round−1, or if any other field is
// outside the bounds DecodeWire enforces.
func AppendWire(dst []byte, v *Vertex) ([]byte, error) {
	k, ok := strongBitmapLen(v)
	if !ok {
		return dst, errStrongShape
	}
	if !inBounds(v) {
		return dst, errOutOfBounds
	}
	dst = wire.AppendInt(dst, int(v.Source))
	dst = wire.AppendInt(dst, v.Round)
	dst = wire.AppendInt(dst, len(v.Block))
	for _, tx := range v.Block {
		dst = wire.AppendString(dst, tx)
	}
	// Grown and cleared in place: append(dst, make([]byte, k)...) would
	// allocate under the race detector, and the allocation gates run there.
	dst = slices.Grow(wire.AppendInt(dst, k), k)
	bitmap := dst[len(dst) : len(dst)+k]
	clear(bitmap)
	for _, e := range v.StrongEdges {
		bitmap[e.Source/8] |= 1 << (e.Source % 8)
	}
	dst = dst[:len(dst)+k]
	dst = wire.AppendInt(dst, len(v.WeakEdges))
	for _, r := range v.WeakEdges {
		dst = wire.AppendInt(dst, int(r.Source))
		dst = wire.AppendInt(dst, r.Round)
	}
	return dst, nil
}

// strongBitmapLen returns the byte length of the bitmap of v's strong
// edges, 0 for none, and whether they have one: whether they are distinct
// ascending sources in [0, wire.MaxUniverse), all at v.Round−1 ≥ 0.
func strongBitmapLen(v *Vertex) (int, bool) {
	last := -1
	for _, e := range v.StrongEdges {
		if v.Round < 1 || e.Round != v.Round-1 || int(e.Source) <= last || int(e.Source) >= wire.MaxUniverse {
			return 0, false
		}
		last = int(e.Source)
	}
	return (last + 8) / 8, true
}

// inBounds reports whether v's fields other than its strong edges are
// within the bounds DecodeWire enforces.
func inBounds(v *Vertex) bool {
	if !refInBounds(VertexRef{Source: v.Source, Round: v.Round}) || len(v.Block) > wire.MaxCount || len(v.WeakEdges) > wire.MaxCount {
		return false
	}
	for _, tx := range v.Block {
		if len(tx) > wire.MaxStringLen {
			return false
		}
	}
	for _, r := range v.WeakEdges {
		if !refInBounds(r) {
			return false
		}
	}
	return true
}

// refInBounds reports whether r's source is in [0, wire.MaxUniverse] and
// its round in [0, wire.MaxRound].
func refInBounds(r VertexRef) bool {
	return uint(r.Source) <= wire.MaxUniverse && uint(r.Round) <= wire.MaxRound
}

// DecodeWire parses one vertex body from the front of b and returns the
// vertex, sealed, and the bytes after the body.
//
// The digest is over the canonical encoding, because a fetch reply is
// always a re-encoding. wire.ReadUvarint rejects every non-minimal varint
// and the decoder every bitmap with a trailing zero byte, so the bytes a
// body decodes from are the bytes the encoder would write, and they are
// hashed as they are, once.
func DecodeWire(b []byte) (*Vertex, []byte, error) {
	src, rest, err := wire.ReadInt(b, wire.MaxUniverse)
	if err != nil {
		return nil, b, fmt.Errorf("dag: wire vertex source: %w", err)
	}
	round, rest, err := wire.ReadInt(rest, wire.MaxRound)
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
	bitmap, weakRefs, err := checkStrongWire(rest, round)
	if err != nil {
		return nil, b, fmt.Errorf("dag: wire vertex strong edges: %w", err)
	}
	weak, end, err := checkRefsWire(weakRefs)
	if err != nil {
		return nil, b, fmt.Errorf("dag: wire vertex weak edges: %w", err)
	}
	strong := 0
	for _, x := range bitmap {
		strong += bits.OnesCount8(x)
	}
	v := &Vertex{Source: types.ProcessID(src), Round: round, Block: block}
	if strong+weak > 0 {
		edges := make([]VertexRef, strong+weak)
		readStrongWire(edges[:strong], bitmap, round-1)
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

// errStrongBitmap reports a strong-edge bitmap no encoder writes.
var errStrongBitmap = errors.New("dag: strong-edge bitmap on round 0 or with a trailing zero byte")

// checkStrongWire validates the strong-edge bitmap at the front of b, in a
// vertex of the given round, and returns it and the bytes after it.
func checkStrongWire(b []byte, round int) ([]byte, []byte, error) {
	k, rest, err := wire.ReadInt(b, wire.MaxUniverse/8)
	if err != nil {
		return nil, b, err
	}
	if k > len(rest) {
		return nil, b, wire.ErrTruncated
	}
	if k > 0 && (round == 0 || rest[k-1] == 0) {
		return nil, b, errStrongBitmap
	}
	return rest[:k], rest[k:], nil
}

// readStrongWire fills edges, in ascending source order, with the strong
// edges into round prev that bitmap names; bitmap has len(edges) bits set.
func readStrongWire(edges []VertexRef, bitmap []byte, prev int) {
	i := 0
	for at, x := range bitmap {
		for ; x != 0; x &= x - 1 {
			edges[i] = VertexRef{Source: types.ProcessID(8*at + bits.TrailingZeros8(x)), Round: prev}
			i++
		}
	}
}

// checkRefsWire validates the weak-edge list at the front of b without
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
		if _, rest, err = wire.ReadInt(rest, wire.MaxRound); err != nil {
			return 0, b, err
		}
	}
	return count, rest, nil
}

// readRefsWire decodes into refs the weak-edge list at the front of b,
// which checkRefsWire validated and found len(refs) long.
func readRefsWire(refs []VertexRef, b []byte) {
	_, b, _ = wire.ReadUvarint(b) // the count
	for i := range refs {
		var src, round uint64
		src, b, _ = wire.ReadUvarint(b)
		round, b, _ = wire.ReadUvarint(b)
		refs[i] = VertexRef{Source: types.ProcessID(src), Round: int(round)}
	}
}

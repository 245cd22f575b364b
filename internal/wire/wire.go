// Package wire implements the shared framed binary codec for protocol
// messages: a compact type-tag registry plus append-style encoding
// primitives.
//
// Every protocol message type registers a Codec (tag, encoder, decoder) at
// package init. The encoder is the one description of a layout: a
// message's size is the length of its encoding. The one registration
// serves two consumers that previously disagreed about message bytes:
//
//   - the deterministic simulator's byte metrics: sim.MessageSize returns
//     the encoded frame length for registered types, and a self-send is
//     free, so simulated BytesSent figures match what a real deployment
//     puts on the wire;
//   - the TCP transport (internal/transport), whose writer path encodes
//     outbox drains into batched length-prefixed frames of these messages.
//
// A message frame is [uvarint tag][body]. The body layout is owned by the
// registering package and built from the primitives here: uvarints,
// length-prefixed strings and byte slices, and raw little-endian bitset
// words (the same word layout types.Set already exposes through Words and
// Key). Varints are canonical: ReadUvarint rejects any encoding longer
// than the minimal one, so a body built from these primitives decodes
// only from the bytes its re-encoding produces.
//
// Register refuses a second type for a tag and a second tag for a type, so
// a binary that links two codecs claiming one tag fails at init. Test-local
// registrations use tags of 1000 and up, by convention.
//
// Decoders must validate everything before it shapes an allocation or an
// index — bodies arrive from the network, possibly from Byzantine peers.
// The Max* limits here cap every length field a decoder trusts, but a cap
// alone is not a bound: a count is bounded by the input that remains.
// Before allocating for n elements, a decoder checks that the rest of the
// body holds n times the smallest encoding of one element, so decoding L
// bytes allocates O(L). ReadString, ReadBytes and ReadSet do this for their
// own lengths, and ReadStrings for a count of strings and every length
// behind it before it allocates; a decoder reading any other
// repeated-element count does it itself.
// internal/transport's FuzzDecodeBatch holds every registered codec to
// this at run time.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"sync"

	"repro/internal/types"
)

// Decode limits. Every length field read off the wire is checked against
// one of these, and against the bytes that remain, before it drives an
// allocation.
const (
	// MaxStringLen bounds one length-prefixed string or byte slice.
	MaxStringLen = 1 << 20
	// MaxCount bounds one repeated-element count (blocks, edges, pairs).
	MaxCount = 1 << 20
	// MaxUniverse bounds a bitset universe size.
	MaxUniverse = 1 << 20
	// MaxRound bounds a DAG round or a wave number.
	MaxRound = 1 << 30
)

// ErrTruncated reports input that ended inside a field.
var ErrTruncated = errors.New("wire: truncated input")

// ErrNonMinimal reports a varint encoded in more bytes than it needs.
var ErrNonMinimal = errors.New("wire: non-minimal varint")

// ErrUnregistered reports a message whose dynamic type, or a frame whose
// tag, has no codec. It is a fixed value, so sizing an unregistered
// message allocates nothing.
var ErrUnregistered = errors.New("wire: unregistered message type")

// Codec describes how one message type encodes. Both functions receive
// the message boxed as `any` with the registered dynamic type.
type Codec struct {
	// Append appends msg's body to dst and returns the extended slice. It
	// fails when msg cannot be encoded at all (for example a nested
	// interface field holding an unregistered type).
	Append func(dst []byte, msg any) ([]byte, error)
	// Decode parses one body from the front of b, returning the decoded
	// message and the remaining bytes.
	Decode func(b []byte) (any, []byte, error)
}

type entry struct {
	tag   uint64
	typ   reflect.Type
	codec Codec
}

var (
	regMu  sync.Mutex
	byType sync.Map // reflect.Type -> *entry
	byTag  sync.Map // uint64 -> *entry
)

// Register binds a tag and a Codec to prototype's dynamic type.
// Registration normally happens in package init; re-registering the same
// (tag, type) pair is a no-op, while any conflict — tag reuse across
// types, or one type under two tags — panics immediately.
func Register(tag uint64, prototype any, c Codec) {
	typ := reflect.TypeOf(prototype)
	if typ == nil {
		panic("wire: Register with untyped nil prototype")
	}
	if c.Append == nil || c.Decode == nil {
		panic(fmt.Sprintf("wire: incomplete codec for %v", typ))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := byTag.Load(tag); ok {
		if prev.(*entry).typ == typ {
			return // idempotent re-registration
		}
		panic(fmt.Sprintf("wire: tag %d already registered for %v, cannot rebind to %v",
			tag, prev.(*entry).typ, typ))
	}
	if prev, ok := byType.Load(typ); ok {
		panic(fmt.Sprintf("wire: type %v already registered under tag %d, cannot rebind to %d",
			typ, prev.(*entry).tag, tag))
	}
	e := &entry{tag: tag, typ: typ, codec: c}
	byTag.Store(tag, e)
	byType.Store(typ, e)
}

// Append appends msg's frame (tag + body) to dst. A message whose type is
// not registered fails with ErrUnregistered.
func Append(dst []byte, msg any) ([]byte, error) {
	v, ok := byType.Load(reflect.TypeOf(msg))
	if !ok {
		return dst, ErrUnregistered
	}
	e := v.(*entry)
	return e.codec.Append(AppendUvarint(dst, e.tag), msg)
}

// Marshal encodes msg as one frame into a new slice.
func Marshal(msg any) ([]byte, error) {
	out, err := Append(nil, msg)
	if err != nil {
		return nil, fmt.Errorf("%T: %w", msg, err)
	}
	return out, nil
}

// Decode parses one frame from the front of b, returning the message and
// the remaining bytes. A frame whose tag is not registered fails with an
// error wrapping ErrUnregistered.
func Decode(b []byte) (any, []byte, error) {
	tag, rest, err := ReadUvarint(b)
	if err != nil {
		return nil, b, fmt.Errorf("wire: frame tag: %w", err)
	}
	e, ok := byTag.Load(tag)
	if !ok {
		return nil, b, fmt.Errorf("%w: tag %d", ErrUnregistered, tag)
	}
	return e.(*entry).codec.Decode(rest)
}

// digestBufPool recycles the scratch buffers Digest encodes into, so hashing
// a block allocates nothing of the block's size.
var digestBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Digest returns the SHA-256 of msg's frame (tag + body) as Append encodes
// it: the content address of a message. Two messages have equal digests
// exactly when their canonical encodings are equal, and the tag keeps
// messages of different types apart.
func Digest(msg any) ([sha256.Size]byte, error) {
	bp := digestBufPool.Get().(*[]byte)
	frame, err := Append((*bp)[:0], msg)
	var sum [sha256.Size]byte
	if err == nil {
		sum = sha256.Sum256(frame)
	}
	*bp = frame[:0]
	digestBufPool.Put(bp)
	return sum, err
}

// BodyDigest returns what Digest returns for the message registered under
// tag whose canonical body is body — for code that holds the body already:
// a decoder hashing the bytes it consumed instead of re-encoding, or an
// encoder hashing what it wrote. A body the decoders accept is canonical
// (see ReadUvarint), so it is the body Digest would hash.
func BodyDigest(tag uint64, body []byte) [sha256.Size]byte {
	var hdr [binary.MaxVarintLen64]byte
	h := sha256.New()
	h.Write(hdr[:binary.PutUvarint(hdr[:], tag)])
	h.Write(body)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Primitives. --------------------------------------------------------------

// UvarintSize returns the encoded length of v.
func UvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendUvarint appends the varint encoding of v.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// ReadUvarint parses a uvarint from the front of b. It accepts only the
// minimal encoding: a multi-byte varint whose last byte is 0 spells a
// shorter one the long way, and fails with ErrNonMinimal.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, ErrTruncated
	}
	if n > 1 && b[n-1] == 0 {
		return 0, b, ErrNonMinimal
	}
	return v, b[n:], nil
}

// AppendInt appends a non-negative int as a uvarint.
func AppendInt(dst []byte, v int) []byte {
	if v < 0 {
		panic(fmt.Sprintf("wire: negative int %d", v))
	}
	return AppendUvarint(dst, uint64(v))
}

// ReadInt parses a non-negative int bounded by max (inclusive).
func ReadInt(b []byte, max int) (int, []byte, error) {
	v, rest, err := ReadUvarint(b)
	if err != nil {
		return 0, b, err
	}
	if v > uint64(max) {
		return 0, b, fmt.Errorf("wire: value %d exceeds bound %d", v, max)
	}
	return int(v), rest, nil
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadString parses a length-prefixed string (≤ MaxStringLen). The result
// does not alias b.
func ReadString(b []byte) (string, []byte, error) {
	n, rest, err := ReadInt(b, MaxStringLen)
	if err != nil {
		return "", b, err
	}
	if n > len(rest) {
		return "", b, ErrTruncated
	}
	return string(rest[:n]), rest[n:], nil
}

// ReadStrings parses count length-prefixed strings (each ≤ MaxStringLen)
// written back to back by AppendString. A first pass validates every
// length and sums the string bytes without allocating; a second copies
// only those bytes into one allocation, and the results are substrings of
// it. So any count costs at most two allocations, the slice and the
// bytes, and no result aliases b. Count 0 returns a nil slice.
func ReadStrings(b []byte, count int) ([]string, []byte, error) {
	if count < 0 || count > len(b) { // each string takes at least its 1-byte prefix
		return nil, b, ErrTruncated
	}
	if count == 0 {
		return nil, b, nil
	}
	rest, total := b, 0
	for i := 0; i < count; i++ {
		n, r, err := ReadInt(rest, MaxStringLen)
		if err != nil {
			return nil, b, err
		}
		if n > len(r) {
			return nil, b, ErrTruncated
		}
		total += n
		rest = r[n:]
	}
	// Grow makes the bytes one allocation. A Builder never rewrites bytes
	// it has handed out, so each substring stays valid as more follow.
	var sb strings.Builder
	sb.Grow(total)
	out := make([]string, count)
	rest = b
	for i := range out {
		v, r, _ := ReadUvarint(rest) // validated by the first pass
		n := int(v)
		start := sb.Len()
		sb.Write(r[:n])
		out[i] = sb.String()[start:]
		rest = r[n:]
	}
	return out, rest, nil
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// ReadBytes parses a length-prefixed byte slice (≤ MaxStringLen). The
// result is a copy — decoders may reuse their input buffers.
func ReadBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := ReadInt(b, MaxStringLen)
	if err != nil {
		return nil, b, err
	}
	if n > len(rest) {
		return nil, b, ErrTruncated
	}
	out := make([]byte, n)
	copy(out, rest[:n])
	return out, rest[n:], nil
}

// AppendSet appends a bitset as [uvarint n][raw LE words], reusing the
// word layout types.Set exposes through Words.
func AppendSet(dst []byte, s types.Set) []byte {
	dst = AppendUvarint(dst, uint64(s.UniverseSize()))
	for _, w := range s.Words() {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// ReadSet parses a bitset written by AppendSet. The universe is bounded by
// MaxUniverse and stray bits beyond it are rejected, so a Byzantine peer
// can neither force a huge allocation nor smuggle out-of-universe members.
func ReadSet(b []byte) (types.Set, []byte, error) {
	n, rest, err := ReadInt(b, MaxUniverse)
	if err != nil {
		return types.Set{}, b, fmt.Errorf("wire: set universe: %w", err)
	}
	wc := (n + 63) / 64
	if len(rest) < 8*wc {
		return types.Set{}, b, ErrTruncated
	}
	words := make([]uint64, wc)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(rest[8*i:])
	}
	s, err := types.NewSetFromWords(n, words)
	if err != nil {
		return types.Set{}, b, err
	}
	return s, rest[8*wc:], nil
}

// Package types provides the foundational value types shared by every other
// package in this repository: process identifiers, process-set bitsets, and
// small deterministic-randomness helpers.
//
// The paper models a system of n processes P = {p_1, ..., p_n}. We identify
// processes by zero-based ProcessID values in [0, n).
package types

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// ProcessID identifies a process. IDs are dense and zero-based: a system of
// n processes uses IDs 0..n-1.
type ProcessID int

// String returns the conventional 1-based name used by the paper ("p5").
func (p ProcessID) String() string {
	return "p" + strconv.Itoa(int(p)+1)
}

const wordBits = 64

// Set is a fixed-universe bitset over process IDs. The zero value is an
// empty set over a zero-sized universe; use NewSet to create a set over a
// universe of n processes.
//
// All binary operations (Union, Intersect, ...) require both operands to
// have the same universe size and panic otherwise: mixing universes is
// always a programming error in this codebase.
type Set struct {
	n     int
	words []uint64
}

// NewSet returns an empty set over a universe of n processes.
func NewSet(n int) Set {
	if n < 0 {
		panic("types: negative universe size")
	}
	return Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewSets returns k empty sets over a universe of n processes, cut from one
// backing array instead of k. The sets are independent; only their storage
// is shared.
func NewSets(n, k int) []Set {
	if n < 0 {
		panic("types: negative universe size")
	}
	wc := (n + wordBits - 1) / wordBits
	words := make([]uint64, k*wc)
	out := make([]Set, k)
	for i := range out {
		out[i] = Set{n: n, words: words[i*wc : (i+1)*wc : (i+1)*wc]}
	}
	return out
}

// NewSetOf returns a set over a universe of n processes containing the given
// members.
func NewSetOf(n int, members ...ProcessID) Set {
	s := NewSet(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// FullSet returns the set containing every process in a universe of size n.
func FullSet(n int) Set {
	s := NewSet(n)
	for w := range s.words {
		s.words[w] = ^uint64(0)
	}
	s.trim()
	return s
}

// trim clears bits above the universe size.
func (s *Set) trim() {
	if len(s.words) == 0 {
		return
	}
	if rem := s.n % wordBits; rem != 0 {
		s.words[len(s.words)-1] &= (uint64(1) << uint(rem)) - 1
	}
}

// UniverseSize returns the number of processes in the set's universe.
func (s Set) UniverseSize() int { return s.n }

func (s Set) checkBounds(p ProcessID) {
	if p < 0 || int(p) >= s.n {
		panic(fmt.Sprintf("types: process %d out of universe [0,%d)", int(p), s.n))
	}
}

func (s Set) checkSameUniverse(t Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("types: universe mismatch %d vs %d", s.n, t.n))
	}
}

// Add inserts p into the set.
func (s *Set) Add(p ProcessID) {
	s.checkBounds(p)
	s.words[int(p)/wordBits] |= 1 << (uint(p) % wordBits)
}

// Remove deletes p from the set.
func (s *Set) Remove(p ProcessID) {
	s.checkBounds(p)
	s.words[int(p)/wordBits] &^= 1 << (uint(p) % wordBits)
}

// Clear removes every member, keeping the universe and the storage.
func (s *Set) Clear() { clear(s.words) }

// Contains reports whether p is a member.
func (s Set) Contains(p ProcessID) bool {
	if p < 0 || int(p) >= s.n {
		return false
	}
	return s.words[int(p)/wordBits]&(1<<(uint(p)%wordBits)) != 0
}

// Count returns the cardinality of the set.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no members.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Union returns s ∪ t as a new set.
func (s Set) Union(t Set) Set {
	s.checkSameUniverse(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] |= w
	}
	return r
}

// UnionInPlace adds every member of t to s.
func (s *Set) UnionInPlace(t Set) {
	s.checkSameUniverse(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Intersect returns s ∩ t as a new set.
func (s Set) Intersect(t Set) Set {
	s.checkSameUniverse(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] &= w
	}
	return r
}

// Subtract returns s \ t as a new set.
func (s Set) Subtract(t Set) Set {
	s.checkSameUniverse(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] &^= w
	}
	return r
}

// Complement returns P \ s over the set's universe.
func (s Set) Complement() Set {
	return FullSet(s.n).Subtract(s)
}

// IsSubsetOf reports whether every member of s is in t.
func (s Set) IsSubsetOf(t Set) bool {
	s.checkSameUniverse(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s ∩ t is non-empty.
func (s Set) Intersects(t Set) bool {
	s.checkSameUniverse(t)
	for i, w := range s.words {
		if w&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and t have identical members and universe.
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Members returns the members in ascending order.
func (s Set) Members() []ProcessID {
	out := make([]ProcessID, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, ProcessID(wi*wordBits+b))
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for every member in ascending order. Iteration stops if
// fn returns false.
func (s Set) ForEach(fn func(ProcessID) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(ProcessID(wi*wordBits + b)) {
				return
			}
			w &= w - 1
		}
	}
}

// Key returns a compact string usable as a map key for deduplication. The
// encoding is the raw little-endian bytes of the backing words — not
// printable, but map keys never are displayed, and this avoids the
// per-word formatting that used to dominate the gather/common-core dedup
// paths.
func (s Set) Key() string {
	b := make([]byte, 0, len(s.words)*8)
	for _, w := range s.words {
		b = append(b,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return string(b)
}

// Words exposes the backing word slice (bit j of word k is process
// k*64+j). It is shared, not copied: callers must treat it as read-only.
// The quorum package's compiled evaluator uses it to run word-parallel
// subset/intersection tests without per-call universe checks.
func (s Set) Words() []uint64 { return s.words }

// NewSetFromWords builds a set over a universe of n processes from raw
// backing words in the layout Words and Key expose (bit j of word k is
// process k*64+j). The words are copied. It returns an error — rather
// than panicking like the in-process constructors — when the word count
// does not match the universe or a bit is set beyond it, because the
// input typically comes off the wire from an untrusted peer.
func NewSetFromWords(n int, words []uint64) (Set, error) {
	if n < 0 {
		return Set{}, fmt.Errorf("types: negative universe size %d", n)
	}
	wc := (n + wordBits - 1) / wordBits
	if len(words) != wc {
		return Set{}, fmt.Errorf("types: %d words for universe %d (want %d)", len(words), n, wc)
	}
	if wc > 0 {
		if rem := n % wordBits; rem != 0 && words[wc-1]>>uint(rem) != 0 {
			return Set{}, fmt.Errorf("types: set words carry bits beyond universe %d", n)
		}
	}
	s := Set{n: n, words: make([]uint64, wc)}
	copy(s.words, words)
	return s, nil
}

// String renders the set in the paper's 1-based notation, e.g. {1, 2, 16}.
func (s Set) String() string {
	ms := s.Members()
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = strconv.Itoa(int(m) + 1)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// SortedCopy returns the input IDs sorted ascending (convenience for tests
// and deterministic output).
func SortedCopy(ids []ProcessID) []ProcessID {
	out := make([]ProcessID, len(ids))
	copy(out, ids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

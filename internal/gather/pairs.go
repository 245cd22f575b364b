// Package gather implements the paper's common-core protocols (§2.4, §3),
// one Kind each, all run by RunCluster:
//
//   - ThreeRound: the classic three-round gather (Algorithm 1) and its
//     quorum-replacement generalization (Algorithm 2) — they are the same
//     code; instantiating the trust assumption with quorum.Threshold yields
//     Algorithm 1, with an asymmetric system yields Algorithm 2. The paper
//     proves (Lemma 3.2) that the asymmetric instantiation does NOT satisfy
//     the common-core property; this package exists both as the symmetric
//     baseline and as the vehicle for reproducing that counterexample.
//   - TwoRound: Tusk's two-round common-core primitive, the same
//     quorum-merge node with one round less.
//   - ConstantRound: the paper's novel constant-round asymmetric gather
//     (Algorithm 3) with DISTRIBUTE_S / ACK / READY / CONFIRM /
//     DISTRIBUTE_T control flow. Its ACK/READY/CONFIRM rules (lines
//     51–59) are Gate, which internal/core's consensus waves run too.
//   - Binding: the same Algorithm 3 node with one DISTRIBUTE_U round
//     more, which fixes the common core by the first delivery (§2.4).
//   - Abstract round-merge model: the pure-set-algebra execution of
//     Listing 1, used to regenerate Figures 2–4 exactly.
//
// So two node types run the four kinds: one quorum-merge node runs
// Algorithms 1/2 and Tusk's primitive, one Algorithm 3 node runs the
// constant-round and the binding gather. Both share one merge step over
// level-indexed sets; only Algorithm 3's level 0 (T, with its ACKs) has
// rules of its own. Every set travels in one DISTRIBUTE message whose
// level (0, 1, 2) names the paper's DISTRIBUTE_S, _T or _U; its sender is
// the authenticated link's, a node drops a level it has no set for, and a
// level outside 0–2 has no wire form.
//
// The protocols keep their S/T/U sets as Pairs. At a quorum trigger a
// node sends a Clone of its live set, which keeps growing; a set received
// before all its pairs were arb-delivered waits in a pendingPairs buffer,
// at most one per sender, until they are.
//
// A node's sets are touched only by the goroutine delivering to it, so
// nothing here is synchronized.
package gather

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/types"
)

// Pairs is a set of (process, value) pairs — the S/T/U sets of the gather
// protocols. Correct processes never associate two values with one process
// (reliable broadcast forbids it), but messages from Byzantine processes
// may try, so all merging goes through conflict-aware methods.
//
// Representation: a sender bitset plus a value slice indexed by process.
// The subset test other ⊆ p — the acceptance predicate evaluated on every
// DISTRIBUTE message — is then a word-parallel bitset check followed by
// value comparisons for other's members only, with no map hashing or
// iteration; Merge and Clone are word-ors and slice copies.
//
// Struct assignment aliases the storage, so a copy that must not see
// later writes is made with Clone. A received Pairs belongs to the
// sender: handlers read it and merge it into their own sets, never write
// it.
type Pairs struct {
	senders types.Set
	vals    []string
}

// NewPairs returns an empty pair set over a universe of n processes.
func NewPairs(n int) Pairs {
	return Pairs{senders: types.NewSet(n), vals: make([]string, n)}
}

// PairsOf builds a pair set over a universe of n from a literal map
// (convenience for tests and adversarial nodes).
func PairsOf(n int, m map[types.ProcessID]string) Pairs {
	p := NewPairs(n)
	// Set writes each key's own slot, so map order cannot show.
	for k, v := range m {
		p.Set(k, v)
	}
	return p
}

// IsZero reports whether p is the zero value (as opposed to an initialized
// empty set). Nodes use it for "not yet sent/delivered" sentinels.
func (p Pairs) IsZero() bool { return p.vals == nil }

// Clone returns an independent deep copy.
func (p Pairs) Clone() Pairs {
	if p.IsZero() {
		return p
	}
	return Pairs{senders: p.senders.Clone(), vals: append([]string(nil), p.vals...)}
}

// Get returns the value associated with process k, if any.
func (p Pairs) Get(k types.ProcessID) (string, bool) {
	if p.IsZero() || !p.senders.Contains(k) {
		return "", false
	}
	return p.vals[k], true
}

// Contains reports whether process k has a value in p.
func (p Pairs) Contains(k types.ProcessID) bool {
	return !p.IsZero() && p.senders.Contains(k)
}

// Set associates value v with process k, returning false if a conflicting
// value is already present (the caller should then reject the message).
func (p *Pairs) Set(k types.ProcessID, v string) bool {
	if p.senders.Contains(k) {
		return p.vals[k] == v
	}
	p.senders.Add(k)
	p.vals[k] = v
	return true
}

// ContainsAll reports whether every pair of other appears in p with the
// same value (other ⊆ p).
func (p Pairs) ContainsAll(other Pairs) bool {
	if other.IsZero() {
		return true
	}
	if p.IsZero() {
		return other.senders.IsEmpty()
	}
	pw, ow := p.senders.Words(), other.senders.Words()
	for wi, w := range ow {
		if w&^pw[wi] != 0 {
			return false
		}
	}
	for wi, w := range ow {
		for w != 0 {
			k := wi*64 + bits.TrailingZeros64(w)
			if p.vals[k] != other.vals[k] {
				return false
			}
			w &= w - 1
		}
	}
	return true
}

// Merge adds every pair of other into p. It returns false (and leaves the
// remaining pairs merged) if any pair conflicts with an existing value.
func (p *Pairs) Merge(other Pairs) bool {
	if other.IsZero() {
		return true
	}
	pw, ow := p.senders.Words(), other.senders.Words()
	ok := true
	for wi, w := range ow {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			k := wi*64 + b
			if pw[wi]&(1<<uint(b)) != 0 {
				if p.vals[k] != other.vals[k] {
					ok = false
				}
			} else {
				pw[wi] |= 1 << uint(b)
				p.vals[k] = other.vals[k]
			}
			w &= w - 1
		}
	}
	return ok
}

// ForEach calls fn for every pair in ascending process order; iteration
// stops if fn returns false.
func (p Pairs) ForEach(fn func(k types.ProcessID, v string) bool) {
	if p.IsZero() {
		return
	}
	p.senders.ForEach(func(k types.ProcessID) bool {
		return fn(k, p.vals[k])
	})
}

// Map materializes the pairs as a plain map — a convenience for tests and
// tooling, not for hot paths.
func (p Pairs) Map() map[types.ProcessID]string {
	m := make(map[types.ProcessID]string, p.Len())
	p.ForEach(func(k types.ProcessID, v string) bool {
		m[k] = v
		return true
	})
	return m
}

// Senders returns the set of processes appearing in p, over a universe of
// size n.
func (p Pairs) Senders(n int) types.Set {
	if p.IsZero() {
		return types.NewSet(n)
	}
	return p.senders.Clone()
}

// Len returns the number of pairs.
func (p Pairs) Len() int {
	if p.IsZero() {
		return 0
	}
	return p.senders.Count()
}

// String renders the pairs sorted by process, for deterministic test and
// experiment output.
func (p Pairs) String() string {
	var b strings.Builder
	b.WriteString("{")
	first := true
	p.ForEach(func(k types.ProcessID, v string) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d:%q", int(k)+1, v)
		return true
	})
	b.WriteString("}")
	return b.String()
}

// wireValid reports whether a Pairs received in a message is usable in a
// cluster of n processes: either the zero value or built over the same
// universe. Handlers drop messages that fail it — a decoded Pairs with a
// different universe would otherwise panic inside Merge/ContainsAll.
func (p Pairs) wireValid(n int) bool {
	return p.IsZero() || (p.senders.UniverseSize() == n && len(p.vals) == n)
}

package gather

import (
	"slices"

	"repro/internal/types"
)

// pendingEntry is one received DISTRIBUTE_S/T/U pair-set, with its sender.
type pendingEntry struct {
	from  types.ProcessID
	pairs Pairs
}

// pendingPairs buffers the DISTRIBUTE_S/T/U sets that are not yet
// contained in the local set S, in arrival order, at most one per sender.
// A set waits until every pair in it has been arb-delivered, and is
// dropped once one of its processes is delivered with another value: S
// values are write-once, so it could never be accepted.
type pendingPairs struct {
	entries []pendingEntry
}

// add registers the pair-set from a sender against the current local set
// s and reports whether it is acceptable now. Otherwise it replaces the
// sender's buffered set, unless it conflicts with s, in which case the
// sender is left with none. An acceptable set leaves the sender's earlier
// buffered set pending.
func (pp *pendingPairs) add(s Pairs, from types.ProcessID, pairs Pairs) bool {
	if s.ContainsAll(pairs) {
		return true
	}
	pp.entries = slices.DeleteFunc(pp.entries, func(e pendingEntry) bool { return e.from == from })
	if !conflicts(s, pairs) {
		pp.entries = append(pp.entries, pendingEntry{from, pairs})
	}
	return false
}

// deliver is called once process k has entered s. It returns, in arrival
// order, the buffered sets that name k and that s now contains, and drops
// those that bind k to another value. The returned slice is the caller's.
func (pp *pendingPairs) deliver(s Pairs, k types.ProcessID) []pendingEntry {
	var ready []pendingEntry
	pp.entries = slices.DeleteFunc(pp.entries, func(e pendingEntry) bool {
		if !e.pairs.Contains(k) {
			return false
		}
		if s.ContainsAll(e.pairs) {
			ready = append(ready, e)
			return true
		}
		return conflicts(s, e.pairs)
	})
	return ready
}

// clear drops every buffered set (used when the protocol stops
// acknowledging).
func (pp *pendingPairs) clear() { pp.entries = nil }

// conflicts reports whether p binds some process to a value other than
// the one s binds it to.
func conflicts(s, p Pairs) bool {
	bad := false
	p.ForEach(func(k types.ProcessID, v string) bool {
		if w, ok := s.Get(k); ok && w != v {
			bad = true
		}
		return !bad
	})
	return bad
}

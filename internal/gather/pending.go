package gather

import (
	"math/bits"

	"repro/internal/types"
)

// pendingEntry is one buffered DISTRIBUTE_S/T/U pair-set whose components
// have not all been arb-delivered yet.
type pendingEntry struct {
	from    types.ProcessID
	pairs   Pairs
	missing int  // pairs not yet confirmed by local arb-deliveries
	dead    bool // conflicting value observed: can never be accepted
	refs    int  // waiter lists still holding a pointer to this entry
}

// acceptedPairs is one buffered pair-set that became acceptable.
type acceptedPairs struct {
	from  types.ProcessID
	pairs Pairs
}

// pendingPairs indexes buffered pair-sets by the arb-deliveries they still
// await, so each delivery re-checks exactly the entries waiting on that
// process instead of rescanning every pending message (the old drainPending
// was O(deliveries × pending × |S|); this is O(total pending membership)).
//
// Conflict handling mirrors the rescan semantics: a pair (k, v) whose
// process k is locally bound to a different value can never satisfy the
// S_j ⊆ S acceptance predicate (S values are write-once), so the entry is
// discarded instead of staying buffered forever.
//
// Allocation: broadcast fan-out buffers and releases entries by the
// thousand on the adversarial schedules, so entries and waiter-list
// backings are recycled through free-lists once every reference to them is
// gone (refs counts the waiter lists still holding an entry), an
// immediately-acceptable set allocates nothing at all, and deliver reuses
// one scratch slice for its results. Everything here is owned by a single
// node on a single goroutine.
type pendingPairs struct {
	bySender map[types.ProcessID]*pendingEntry
	waiters  map[types.ProcessID][]*pendingEntry

	freeEntries []*pendingEntry
	freeLists   [][]*pendingEntry
	ready       []acceptedPairs
}

func newPendingPairs() *pendingPairs {
	return &pendingPairs{
		bySender: map[types.ProcessID]*pendingEntry{},
		waiters:  map[types.ProcessID][]*pendingEntry{},
	}
}

// add registers the pair-set from a sender against the current local set s.
// It returns ready=true when the set is acceptable right now (nothing is
// buffered — or allocated — in that case). A newer message from the same
// sender that has to buffer supersedes the sender's earlier buffered one —
// the map-overwrite semantics this replaces; an immediately accepted
// message leaves any earlier buffered set pending, exactly as the old
// accept branch did.
func (pp *pendingPairs) add(s Pairs, from types.ProcessID, pairs Pairs) (ready bool) {
	if pairs.IsZero() {
		return true
	}
	// Word-parallel split of pairs into present-in-s (value check) and
	// missing (waiter registration) members.
	sw, ow := s.senders.Words(), pairs.senders.Words()
	for wi, w := range ow {
		for present := w & sw[wi]; present != 0; present &= present - 1 {
			k := wi*64 + bits.TrailingZeros64(present)
			if s.vals[k] != pairs.vals[k] {
				// Conflicting value: this set can never be accepted, and it
				// supersedes the sender's earlier buffered set (the old code
				// overwrote it with this never-acceptable one).
				pp.supersede(from)
				return false
			}
		}
	}
	missing := 0
	for wi, w := range ow {
		missing += bits.OnesCount64(w &^ sw[wi])
	}
	if missing == 0 {
		return true
	}
	entry := pp.newEntry(from, pairs, missing)
	for wi, w := range ow {
		for miss := w &^ sw[wi]; miss != 0; miss &= miss - 1 {
			k := types.ProcessID(wi*64 + bits.TrailingZeros64(miss))
			pp.addWaiter(k, entry)
		}
	}
	pp.supersede(from)
	pp.bySender[from] = entry
	return false
}

// supersede invalidates the sender's currently buffered entry, if any.
// The dead entry is recycled once the waiter lists that still point at it
// drain.
func (pp *pendingPairs) supersede(from types.ProcessID) {
	if old := pp.bySender[from]; old != nil {
		old.dead = true
		delete(pp.bySender, from)
	}
}

// newEntry takes an entry off the free-list (or allocates the pool's first
// of that shape).
func (pp *pendingPairs) newEntry(from types.ProcessID, pairs Pairs, missing int) *pendingEntry {
	var e *pendingEntry
	if n := len(pp.freeEntries); n > 0 {
		e = pp.freeEntries[n-1]
		pp.freeEntries = pp.freeEntries[:n-1]
	} else {
		e = &pendingEntry{}
	}
	*e = pendingEntry{from: from, pairs: pairs, missing: missing, refs: missing}
	return e
}

// release recycles a dead entry once no waiter list references it any
// more. The buffered Pairs reference is dropped eagerly so a pooled entry
// does not pin a message payload alive.
func (pp *pendingPairs) release(e *pendingEntry) {
	if !e.dead || e.refs != 0 {
		return
	}
	e.pairs = Pairs{}
	pp.freeEntries = append(pp.freeEntries, e)
}

// addWaiter appends entry to process k's waiter list, reusing a drained
// list backing when one is free.
func (pp *pendingPairs) addWaiter(k types.ProcessID, e *pendingEntry) {
	list, ok := pp.waiters[k]
	if !ok {
		if n := len(pp.freeLists); n > 0 {
			list = pp.freeLists[n-1]
			pp.freeLists = pp.freeLists[:n-1]
		}
	}
	pp.waiters[k] = append(list, e)
}

// deliver records that (k, v) entered the local set and returns the
// entries that became acceptable as a result. The returned slice is a
// scratch buffer owned by pp, valid until the next deliver call — callers
// consume it immediately (and never re-enter deliver/add on the same
// instance while iterating).
func (pp *pendingPairs) deliver(k types.ProcessID, v string) []acceptedPairs {
	list, ok := pp.waiters[k]
	if !ok {
		return nil
	}
	delete(pp.waiters, k)
	pp.ready = pp.ready[:0]
	for i, e := range list {
		list[i] = nil // the recycled backing must not pin entries
		e.refs--
		if e.dead {
			pp.release(e)
			continue
		}
		if want, _ := e.pairs.Get(k); want != v {
			e.dead = true
			delete(pp.bySender, e.from)
			pp.release(e)
			continue
		}
		e.missing--
		if e.missing == 0 {
			e.dead = true
			delete(pp.bySender, e.from)
			pp.ready = append(pp.ready, acceptedPairs{from: e.from, pairs: e.pairs})
			pp.release(e)
		}
	}
	pp.freeLists = append(pp.freeLists, list[:0])
	return pp.ready
}

// clear drops every buffered entry (used when the protocol stops
// acknowledging). The free-lists survive: pooled entries have no live
// references by construction, and drained list backings hold only nils.
func (pp *pendingPairs) clear() {
	for _, e := range pp.bySender {
		e.dead = true
	}
	pp.bySender = map[types.ProcessID]*pendingEntry{}
	pp.waiters = map[types.ProcessID][]*pendingEntry{}
}

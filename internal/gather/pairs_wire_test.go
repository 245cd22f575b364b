package gather

import (
	"testing"

	"repro/internal/types"
)

// TestPendingPairsSupersede pins the buffering semantics: an immediately
// accepted set leaves the sender's earlier buffered set pending, while a
// newly buffered (or conflicting) set supersedes it; sets waiting on one
// process wake in arrival order, and one that conflicts is dropped.
func TestPendingPairsSupersede(t *testing.T) {
	s := PairsOf(4, map[types.ProcessID]string{0: "a"})
	var pp pendingPairs

	// S1 buffers (waits on p2); S2 is immediately acceptable.
	s1 := PairsOf(4, map[types.ProcessID]string{0: "a", 2: "c"})
	if pp.add(s, 1, s1) {
		t.Fatal("S1 should buffer")
	}
	s2 := PairsOf(4, map[types.ProcessID]string{0: "a"})
	if !pp.add(s, 1, s2) {
		t.Fatal("S2 should be immediately acceptable")
	}
	// S1 must still be pending: delivering (2, "c") wakes it.
	s.Set(2, "c")
	ready := pp.deliver(s, 2)
	if len(ready) != 1 || !ready[0].pairs.ContainsAll(s1) {
		t.Fatalf("S1 lost after immediate accept of S2: ready=%v", ready)
	}

	// A newly buffered set supersedes the sender's earlier buffered one.
	s3 := PairsOf(4, map[types.ProcessID]string{3: "d"})
	s4 := PairsOf(4, map[types.ProcessID]string{3: "e"})
	if pp.add(s, 1, s3) || pp.add(s, 1, s4) {
		t.Fatal("S3/S4 should buffer")
	}
	s.Set(3, "e")
	ready = pp.deliver(s, 3)
	if len(ready) != 1 || !ready[0].pairs.ContainsAll(s4) {
		t.Fatalf("expected only superseding S4 to wake, got %v", ready)
	}

	// Three senders wait on process 1; sender 2's set binds it to another
	// value. The two that match wake in arrival order, and sender 2's is
	// dropped, not left pending.
	waiting := []struct {
		from types.ProcessID
		val  string
	}{{3, "b"}, {2, "x"}, {0, "b"}}
	for _, w := range waiting {
		if pp.add(s, w.from, PairsOf(4, map[types.ProcessID]string{1: w.val, 2: "c"})) {
			t.Fatalf("set of %v should buffer", w.from)
		}
	}
	s.Set(1, "b")
	ready = pp.deliver(s, 1)
	if len(ready) != 2 || ready[0].from != 3 || ready[1].from != 0 {
		t.Fatalf("expected senders 3 then 0 to wake, got %v", ready)
	}
	if len(pp.entries) != 0 {
		t.Fatalf("conflicting set still buffered: %v", pp.entries)
	}
}

// TestPairsWireValid: handlers must drop pair-sets over the wrong universe
// before they reach Merge/ContainsAll.
func TestPairsWireValid(t *testing.T) {
	if !(Pairs{}).wireValid(4) {
		t.Error("zero Pairs must be wire-valid")
	}
	if !NewPairs(4).wireValid(4) {
		t.Error("matching universe must be wire-valid")
	}
	if NewPairs(5).wireValid(4) {
		t.Error("mismatched universe must be rejected")
	}
}

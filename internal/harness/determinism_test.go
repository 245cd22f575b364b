package harness

import (
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/rider"
	"repro/internal/types"
)

// TestRepresentativeNodeIsMinPID pins the deterministic choice behind
// "one representative node" in ExpLatency/ExpBatching: the lowest PID.
// (The old code took the first map-iteration hit, so repeated runs of the
// same seed could report different nodes' figures.)
func TestRepresentativeNodeIsMinPID(t *testing.T) {
	nodes := map[types.ProcessID]NodeResult{
		3: {Round: 3},
		1: {Round: 1},
		2: {Round: 2},
	}
	for i := 0; i < 100; i++ {
		if got := representativeNode(nodes); got.Round != 1 {
			t.Fatalf("representativeNode picked node with Round=%d, want the min-PID node (Round=1)", got.Round)
		}
	}
}

// TestExpBatchingDeterministic runs each experiment twice and requires the
// same output, so nothing the experiment prints may depend on map order,
// the wall clock or a global random source. ExpBatching and ExpLatency
// report one representative node, which map order once picked. "waves"
// is left out: one run takes about a second, the rest together about as
// long.
func TestExpBatchingDeterministic(t *testing.T) {
	for _, e := range All() {
		if e.ID == "waves" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			first := e.Run()
			if second := e.Run(); second != first {
				t.Errorf("%s output differs between identical runs:\n--- first\n%s\n--- second\n%s", e.ID, first, second)
			}
		})
	}
}

// TestCheckAgreementAttributionDeterministic pins which process and
// vertex an agreement violation is attributed to: the lowest qualifying
// PID, and the (round, source)-smallest missing vertex. Before the sorted
// walk, map iteration order decided which of several equally guilty
// processes the error named.
func TestCheckAgreementAttributionDeterministic(t *testing.T) {
	refA := dag.VertexRef{Source: 0, Round: 1}
	refB := dag.VertexRef{Source: 1, Round: 1}
	refC := dag.VertexRef{Source: 2, Round: 1}
	deliver := func(refs ...dag.VertexRef) NodeResult {
		nr := NodeResult{DecidedWave: 1}
		for _, ref := range refs {
			nr.Deliveries = append(nr.Deliveries, rider.Delivery{Ref: ref, Wave: 1})
		}
		return nr
	}

	// Both replicas 1 and 2 delivered fewer vertices than replica 0; the
	// error must always name replica 1.
	short := RiderResult{Nodes: map[types.ProcessID]NodeResult{
		0: deliver(refA, refB),
		1: deliver(refA),
		2: deliver(refB),
	}}
	// Replicas 1 and 2 delivered the right count but each misses a
	// different vertex; the error must always name replica 1 missing refB.
	skew := RiderResult{Nodes: map[types.ProcessID]NodeResult{
		0: deliver(refA, refB),
		1: deliver(refA, refC),
		2: deliver(refB, refC),
	}}
	within := types.FullSet(3)

	var firstShort, firstSkew string
	for i := 0; i < 50; i++ {
		errShort := short.CheckAgreement(within)
		errSkew := skew.CheckAgreement(within)
		if errShort == nil || errSkew == nil {
			t.Fatal("violations not detected")
		}
		if i == 0 {
			firstShort, firstSkew = errShort.Error(), errSkew.Error()
			// ProcessID's Stringer is 1-based: PID 1 prints as p2.
			if !strings.Contains(firstShort, "p2 delivered 1 vertices") {
				t.Errorf("short-set violation attributed unexpectedly: %s", firstShort)
			}
			if !strings.Contains(firstSkew, "p2 missing "+refB.String()) {
				t.Errorf("missing-vertex violation attributed unexpectedly: %s", firstSkew)
			}
			continue
		}
		if errShort.Error() != firstShort {
			t.Fatalf("short-set attribution changed between runs:\n%s\n%s", firstShort, errShort)
		}
		if errSkew.Error() != firstSkew {
			t.Fatalf("missing-vertex attribution changed between runs:\n%s\n%s", firstSkew, errSkew)
		}
	}
}

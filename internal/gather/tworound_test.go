package gather

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// runTwoRound runs Tusk's two-round primitive and returns its outputs.
func runTwoRound(trust quorum.Assumption, mode Dissemination, lat sim.LatencyModel, seed int64) map[types.ProcessID]Pairs {
	return RunCluster(RunConfig{Kind: KindTwoRound, Trust: trust, Mode: mode, Latency: lat, Seed: seed}).Outputs
}

// TuskCommonCoreElements computes, for the two-round primitive, the set of
// individual inputs (not whole S sets) present in every delivered output —
// Tusk's common core is a set of elements rather than one process's S set.
func TuskCommonCoreElements(n int, outputs map[types.ProcessID]Pairs, within types.Set) types.Set {
	core := types.FullSet(n)
	for _, p := range within.Members() {
		out, ok := outputs[p]
		if !ok {
			continue
		}
		core = core.Intersect(out.Senders(n))
	}
	return core
}

// TestTuskTwoRoundThreshold: with threshold trust, the two-round primitive
// guarantees at least n−2f inputs common to every output.
func TestTuskTwoRoundThreshold(t *testing.T) {
	n, f := 7, 2
	trust := quorum.NewThreshold(n, f)
	for seed := int64(0); seed < 10; seed++ {
		outputs := runTwoRound(trust, UseReliable, sim.UniformLatency{Min: 1, Max: 40}, seed)
		if len(outputs) != n {
			t.Fatalf("seed %d: %d delivered", seed, len(outputs))
		}
		core := TuskCommonCoreElements(n, outputs, types.FullSet(n))
		if core.Count() < n-2*f {
			t.Fatalf("seed %d: common elements %v < n−2f = %d", seed, core, n-2*f)
		}
	}
}

// TestTuskTwoRoundCounterexample reproduces the paper's §3.2 remark: the
// same Figure 1 counterexample defeats the asymmetric translation of
// Tusk's two-round primitive — under the adversarial schedule the
// intersection of all outputs is EMPTY.
func TestTuskTwoRoundCounterexample(t *testing.T) {
	sys := quorum.Counterexample()
	n := sys.N()
	outputs := runTwoRound(sys, UsePlain, adversarialLatency(sys), 1)
	if len(outputs) != n {
		t.Fatalf("%d delivered", len(outputs))
	}
	core := TuskCommonCoreElements(n, outputs, types.FullSet(n))
	if !core.IsEmpty() {
		t.Fatalf("expected empty common element set, got %v", core)
	}
	// The abstract 2-round merge agrees with the message-level outputs.
	abstract := RoundSets(n, CanonicalChoice(sys), 2)
	for p, out := range outputs {
		if !out.Senders(n).Equal(abstract[p]) {
			t.Errorf("%v delivered %v, abstract 2-round predicts %v", p, out.Senders(n), abstract[p])
		}
	}
}

// TestTuskTwoRoundCheaperThanThreeRound documents the cost ordering of the
// three primitives on one system.
func TestTuskTwoRoundCheaperThanThreeRound(t *testing.T) {
	sys := quorum.Counterexample()
	lat := sim.UniformLatency{Min: 1, Max: 10}

	two := RunCluster(RunConfig{Kind: KindTwoRound, Trust: sys, Mode: UsePlain, Latency: lat, Seed: 2}).Metrics.MessagesSent
	three := RunCluster(RunConfig{Kind: KindThreeRound, Trust: sys, Mode: UsePlain, Latency: lat, Seed: 2}).Metrics.MessagesSent
	constant := RunCluster(RunConfig{Kind: KindConstantRound, Trust: sys, Mode: UsePlain, Latency: lat, Seed: 2}).Metrics.MessagesSent
	if !(two < three && three < constant) {
		t.Errorf("expected msg ordering two(%d) < three(%d) < constant(%d)", two, three, constant)
	}
}

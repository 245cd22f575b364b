package gather

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

func runBinding(trust quorum.Assumption, mode Dissemination, lat sim.LatencyModel, seed int64) (map[types.ProcessID]Pairs, map[types.ProcessID]Pairs, *sim.Metrics) {
	n := trust.N()
	nodes := make([]sim.Node, n)
	raw := make([]*BindingNode, n)
	for i := range nodes {
		nd := NewBindingNode(Config{Trust: trust, Input: InputValue(types.ProcessID(i)), Mode: mode})
		nodes[i] = nd
		raw[i] = nd
	}
	r := sim.NewRunner(sim.Config{N: n, Seed: seed, Latency: lat}, nodes)
	r.Run(0)
	outputs := map[types.ProcessID]Pairs{}
	snaps := map[types.ProcessID]Pairs{}
	for i, nd := range raw {
		if out, ok := nd.Delivered(); ok {
			outputs[types.ProcessID(i)] = out
		}
		if s := nd.SentS(); !s.IsZero() {
			snaps[types.ProcessID(i)] = s
		}
	}
	return outputs, snaps, r.Metrics()
}

// TestBindingGatherCommonCore: the binding variant preserves the common
// core on the counterexample system under the adversarial schedule.
func TestBindingGatherCommonCore(t *testing.T) {
	sys := quorum.Counterexample()
	n := sys.N()
	outputs, snaps, _ := runBinding(sys, UsePlain, adversarialLatency(sys), 1)
	if len(outputs) != n {
		t.Fatalf("%d of %d delivered", len(outputs), n)
	}
	core := AnalyzeCommonCore(n, snaps, outputs, types.FullSet(n))
	if core.IsEmpty() {
		t.Fatal("binding gather lost the common core")
	}
}

// TestBindingGatherContainsInnerOutputs: every process's bound output
// contains the inner U set of every process whose DISTRIBUTE_U it
// accepted — in particular the first deliverer's inner U (the binding
// intuition: the first delivered core is inside all later outputs).
func TestBindingGatherContainsInnerOutputs(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	for seed := int64(0); seed < 8; seed++ {
		n := trust.N()
		nodes := make([]sim.Node, n)
		raw := make([]*BindingNode, n)
		for i := range nodes {
			nd := NewBindingNode(Config{Trust: trust, Input: InputValue(types.ProcessID(i)), Mode: UseReliable})
			nodes[i] = nd
			raw[i] = nd
		}
		r := sim.NewRunner(sim.Config{N: n, Seed: seed, Latency: sim.UniformLatency{Min: 1, Max: 40}}, nodes)
		r.Run(0)
		// With a quorum of 3 out of 4 accepted U sets, any two outputs
		// share at least 2 inner U sets; stronger: each output must
		// contain at least one full quorum's inner U sets. We check the
		// pairwise-core property: some inner U is inside every output.
		sharedExists := false
		for j := range raw {
			inner, ok := raw[j].InnerDelivered()
			if !ok {
				continue
			}
			inAll := true
			for i := range raw {
				out, ok := raw[i].Delivered()
				if !ok || !out.ContainsAll(inner) {
					inAll = false
					break
				}
			}
			if inAll {
				sharedExists = true
				break
			}
		}
		if !sharedExists {
			t.Fatalf("seed %d: no inner U set is inside every bound output", seed)
		}
	}
}

// TestBindingGatherExtraRoundCost: the binding variant sends strictly more
// messages (one extra all-to-all exchange).
func TestBindingGatherExtraRoundCost(t *testing.T) {
	sys := quorum.Counterexample()
	lat := sim.UniformLatency{Min: 1, Max: 10}
	_, _, bindMetrics := runBinding(sys, UsePlain, lat, 3)
	plain := RunCluster(RunConfig{Kind: KindConstantRound, Trust: sys, Mode: UsePlain, Latency: lat, Seed: 3})
	extra := bindMetrics.MessagesSent - plain.Metrics.MessagesSent
	// One more all-to-all exchange: 870 messages on the 30-process
	// system, one per link (a process's copy to itself is free).
	if extra < 30*29 {
		t.Fatalf("binding cost only %d extra messages, want ≥ %d", extra, 30*29)
	}
}

// TestBindingGatherValidity: values in bound outputs are genuine.
func TestBindingGatherValidity(t *testing.T) {
	trust := quorum.NewThreshold(7, 2)
	outputs, _, _ := runBinding(trust, UseReliable, sim.UniformLatency{Min: 1, Max: 25}, 5)
	if len(outputs) != 7 {
		t.Fatalf("%d delivered", len(outputs))
	}
	for p, out := range outputs {
		for src, val := range out.Map() {
			if val != InputValue(src) {
				t.Fatalf("%v delivered wrong value for %v: %q", p, src, val)
			}
		}
	}
}

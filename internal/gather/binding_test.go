package gather

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

func runBinding(trust quorum.Assumption, mode Dissemination, lat sim.LatencyModel, seed int64) RunResult {
	return RunCluster(RunConfig{Kind: KindBinding, Trust: trust, Mode: mode, Latency: lat, Seed: seed})
}

// TestBindingGatherCommonCore: the binding variant preserves the common
// core on the counterexample system under the adversarial schedule.
func TestBindingGatherCommonCore(t *testing.T) {
	sys := quorum.Counterexample()
	n := sys.N()
	res := runBinding(sys, UsePlain, adversarialLatency(sys), 1)
	if len(res.Outputs) != n {
		t.Fatalf("%d of %d delivered", len(res.Outputs), n)
	}
	core := AnalyzeCommonCore(n, res.SSnapshots, res.Outputs, types.FullSet(n))
	if core.IsEmpty() {
		t.Fatal("binding gather lost the common core")
	}
}

// uProbe wraps a gather node and records, by sender, the DISTRIBUTE_U
// sets it receives: a binding node's DISTRIBUTE_U is the U set Algorithm 3
// would have delivered.
type uProbe struct {
	sim.Node
	sent map[types.ProcessID]Pairs
}

func (p uProbe) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if m, ok := msg.(distMsg); ok && m.Level == levelU {
		p.sent[from] = m.Set
	}
	p.Node.Receive(env, from, msg)
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
		sent := map[types.ProcessID]Pairs{}
		for i := range nodes {
			nodes[i] = uProbe{NewNode(KindBinding, Config{Trust: trust, Input: InputValue(types.ProcessID(i)), Mode: UseReliable}), sent}
		}
		r := sim.NewRunner(sim.Config{N: n, Seed: seed, Latency: sim.UniformLatency{Min: 1, Max: 40}}, nodes)
		r.Run(0)
		// With a quorum of 3 out of 4 accepted U sets, any two outputs
		// share at least 2 inner U sets; stronger: each output must
		// contain at least one full quorum's inner U sets. We check the
		// pairwise-core property: some inner U is inside every output.
		sharedExists := false
		for _, inner := range sent {
			inAll := true
			for _, nd := range nodes {
				out, ok := nd.(uProbe).Node.(gatherNode).Delivered()
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
	bind := runBinding(sys, UsePlain, lat, 3)
	plain := RunCluster(RunConfig{Kind: KindConstantRound, Trust: sys, Mode: UsePlain, Latency: lat, Seed: 3})
	extra := bind.Metrics.MessagesSent - plain.Metrics.MessagesSent
	// One more all-to-all exchange: 870 messages on the 30-process
	// system, one per link (a process's copy to itself is free).
	if extra < 30*29 {
		t.Fatalf("binding cost only %d extra messages, want ≥ %d", extra, 30*29)
	}
}

// TestBindingGatherValidity: values in bound outputs are genuine.
func TestBindingGatherValidity(t *testing.T) {
	trust := quorum.NewThreshold(7, 2)
	outputs := runBinding(trust, UseReliable, sim.UniformLatency{Min: 1, Max: 25}, 5).Outputs
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

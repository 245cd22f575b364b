package harness

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gather"
	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

// Duplicate-delivery idempotence conformance: a fault plane re-delivers a
// sampled subset of messages across every protocol runner (rider, gather,
// binding gather) and the protocols' properties must still hold — message
// handlers are required to be idempotent (an asynchronous network may
// always duplicate), and this suite pins that before the duplication
// faults of the scenario registry rely on it.

// redeliver is the link rule re-delivering ~15% of all messages 1..30
// time units after their first delivery.
var redeliver = scenario.Rule{
	Redeliver:      0.15,
	RedeliverDelay: scenario.Jitter{Min: 1, Max: 30},
}

// requireDuplicates fails the test if the sweep's metrics show no
// redeliveries (a vacuous idempotence check): every redelivered copy
// counts as a delivery but not as a send.
func requireDuplicates(t *testing.T, m *sim.Metrics) {
	t.Helper()
	if m.MessagesDelivered <= m.MessagesSent {
		t.Fatalf("no duplicate deliveries injected (delivered %d <= sent %d): vacuous sweep",
			m.MessagesDelivered, m.MessagesSent)
	}
}

// TestDuplicateDeliveryIdempotenceRider re-runs the Definition 4.1
// conformance sweep with ~15% of deliveries duplicated.
func TestDuplicateDeliveryIdempotenceRider(t *testing.T) {
	count := 60
	if testing.Short() {
		count = 10
	}
	stats := SweepRider(sim.SeedRange(1, count), func(seed int64) RiderConfig {
		cfg := conformanceConfig(seed)
		cfg.Scenario.Rules = append(cfg.Scenario.Rules, redeliver)
		return cfg
	}, CheckScenarioProperties)
	if stats.Failures > 0 {
		t.Fatalf("%d/%d seeds violated Definition 4.1 under duplicate delivery; first failing %s",
			stats.Failures, stats.Seeds, stats.First)
	}
	if stats.DecidedNodes == 0 {
		t.Fatal("sweep vacuous: no node decided")
	}
	requireDuplicates(t, stats.Metrics)
}

// TestDuplicateDeliveryIdempotenceGather sweeps the constant-round gather
// under duplicate delivery: everyone must still g-deliver a common core.
func TestDuplicateDeliveryIdempotenceGather(t *testing.T) {
	count := 30
	if testing.Short() {
		count = 6
	}
	stats := SweepGather(sim.SeedRange(1, count), func(seed int64) gather.RunConfig {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{
			N: n, NumSets: 1 + rng.Intn(2), MaxFault: 1, Seed: rng.Int63(),
		})
		if err != nil {
			sys, err = quorum.NewThresholdExplicit(n, (n-1)/3)
			if err != nil {
				panic(err)
			}
		}
		return gather.RunConfig{
			Kind: gather.KindConstantRound, Trust: sys, Mode: gather.UsePlain,
			Latency: sim.UniformLatency{Min: 1, Max: 20},
			Seed:    seed, Scenario: &scenario.Scenario{Rules: []scenario.Rule{redeliver}},
		}
	}, func(cfg gather.RunConfig, res gather.RunResult) error {
		if len(res.Outputs) != cfg.Trust.N() {
			return fmt.Errorf("only %d/%d processes g-delivered", len(res.Outputs), cfg.Trust.N())
		}
		return nil
	})
	if stats.Failures > 0 {
		t.Fatalf("%d/%d gather seeds failed under duplicate delivery; first %s",
			stats.Failures, stats.Seeds, stats.First)
	}
	if stats.CommonCores != stats.Runs {
		t.Fatalf("common core missing in %d/%d duplicated runs", stats.Runs-stats.CommonCores, stats.Runs)
	}
	requireDuplicates(t, stats.Metrics)
}

// TestDuplicateDeliveryIdempotenceACS runs agreement on a core set — the
// binding gather, whose core is fixed before the first process delivers —
// under duplicate delivery: every process must deliver, and one process's
// S set must lie in every output.
func TestDuplicateDeliveryIdempotenceACS(t *testing.T) {
	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	trust := quorum.NewThreshold(4, 1)
	n := trust.N()
	for seed := int64(1); seed <= seeds; seed++ {
		nodes := make([]sim.Node, n)
		raw := make([]*gather.BindingNode, n)
		for i := range nodes {
			raw[i] = gather.NewBindingNode(gather.Config{
				Trust: trust, Input: gather.InputValue(types.ProcessID(i)), Mode: gather.UsePlain,
			})
			nodes[i] = raw[i]
		}
		sc := scenario.Scenario{Rules: []scenario.Rule{redeliver}}
		r := sim.NewRunner(sim.Config{
			N: n, Seed: seed, Latency: sim.UniformLatency{Min: 1, Max: 20}, Fault: sc.FaultPlane(),
		}, nodes)
		r.Run(sim.ResolveEventBudget(0))
		if r.Pending() > 0 {
			t.Fatalf("seed %d: run truncated at its event budget", seed)
		}
		outputs := map[types.ProcessID]gather.Pairs{}
		sSnap := map[types.ProcessID]gather.Pairs{}
		for i, nd := range raw {
			p := types.ProcessID(i)
			out, ok := nd.Delivered()
			if !ok {
				t.Fatalf("seed %d: %v did not deliver under duplicate delivery", seed, p)
			}
			outputs[p] = out
			sSnap[p] = nd.SentS()
		}
		if core := gather.AnalyzeCommonCore(n, sSnap, outputs, types.FullSet(n)); core.IsEmpty() {
			t.Fatalf("seed %d: no common core in the binding outputs under duplicate delivery", seed)
		}
		requireDuplicates(t, r.Metrics())
	}
}

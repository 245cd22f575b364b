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

// Duplicate-delivery idempotence conformance: a fault plane duplicates a
// sampled subset of messages across every protocol runner (rider, gather,
// binding gather) and the protocols' properties must still hold — message
// handlers are required to be idempotent (an asynchronous network may
// always duplicate), and this suite pins that before the duplication
// faults of the scenario registry rely on it.

// duplicate is the link rule sending ~15% of all messages twice. Each
// copy draws its own latency, so a copy may be handled after its
// original: under the gather runs' uniform 1..20 latency in 52.5% of
// cases, at a later instant or at the same one behind the original,
// which was queued first. stale-replay delivers copies long after.
var duplicate = scenario.Rule{Duplicate: 0.15}

// requireDuplicates fails the test if the sweep's metrics show no
// duplicated message (a vacuous idempotence check).
func requireDuplicates(t *testing.T, m *sim.Metrics) {
	t.Helper()
	if m.Duplicated == 0 {
		t.Fatalf("no duplicate copies injected (%d delivered, %d sent): vacuous sweep",
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
		cfg.Scenario.Rules = append(cfg.Scenario.Rules, duplicate)
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
			Seed:    seed, Scenario: &scenario.Scenario{Rules: []scenario.Rule{duplicate}},
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
		res := gather.RunCluster(gather.RunConfig{
			Kind: gather.KindBinding, Trust: trust, Mode: gather.UsePlain,
			Latency: sim.UniformLatency{Min: 1, Max: 20}, Seed: seed,
			Scenario: &scenario.Scenario{Rules: []scenario.Rule{duplicate}},
		})
		if res.HitLimit {
			t.Fatalf("seed %d: run truncated at its event budget", seed)
		}
		for i := 0; i < n; i++ {
			if _, ok := res.Outputs[types.ProcessID(i)]; !ok {
				t.Fatalf("seed %d: %v did not deliver under duplicate delivery", seed, types.ProcessID(i))
			}
		}
		if core := gather.AnalyzeCommonCore(n, res.SSnapshots, res.Outputs, types.FullSet(n)); core.IsEmpty() {
			t.Fatalf("seed %d: no common core in the binding outputs under duplicate delivery", seed)
		}
		requireDuplicates(t, res.Metrics)
	}
}

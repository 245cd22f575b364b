package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gather"
	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

// Randomized protocol-property conformance suite: the paper's Definition
// 4.1 guarantees checked at statistical scale. Every seed deterministically
// derives a random asymmetric trust system, an optional tolerated mute
// fault, and a random schedule; the sweep engine fans the runs out across
// cores and reports the first failing seed on any violation — rerun with
// that seed to reproduce the exact execution.

// conformanceConfig derives one randomized consensus execution from its
// seed. Everything — system shape, faults, schedule — is a pure function
// of the seed, so a reported failure is replayable.
func conformanceConfig(seed int64) RiderConfig {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(5) // 4..8 processes
	sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{
		N:        n,
		NumSets:  1 + rng.Intn(2),
		MaxFault: 1 + rng.Intn(2),
		Seed:     rng.Int63(),
	})
	if err != nil {
		// Rare: no valid random system for these parameters. Fall back to
		// an explicit threshold system, whose fail-prone sets the mute
		// below draws from.
		sys, err = quorum.NewThresholdExplicit(n, (n-1)/3)
		if err != nil {
			panic(err) // sweep attributes the panic to this seed
		}
	}

	// With probability 1/2, mute one tolerated fail-prone set — the
	// properties must hold for the maximal guild of every such execution.
	sc := &scenario.Scenario{Properties: []scenario.Property{
		scenario.TotalOrder, scenario.Agreement, scenario.Integrity, scenario.Validity,
	}}
	if rng.Intn(2) == 0 {
		fps := sys.FailProneSets(types.ProcessID(rng.Intn(n)))
		if len(fps) > 0 {
			for _, p := range fps[rng.Intn(len(fps))].Members() {
				sc.Faults = append(sc.Faults, scenario.Mute(p))
			}
		}
	}

	return RiderConfig{
		Kind:       Asymmetric,
		Trust:      sys,
		NumWaves:   4,
		TxPerBlock: 1,
		Seed:       seed,
		CoinSeed:   seed*31 + 7,
		Latency:    sim.UniformLatency{Min: 1, Max: sim.VirtualTime(5 + rng.Intn(40))},
		Scenario:   sc,
	}
}

// TestRandomizedProtocolConformance sweeps ≥200 random systems through the
// asymmetric protocol and asserts total order, agreement, integrity and
// validity on every run with a guild.
func TestRandomizedProtocolConformance(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 25
	}
	stats := SweepRider(sim.SeedRange(1, count), conformanceConfig, CheckScenarioProperties)
	if stats.Failures > 0 {
		t.Fatalf("%d/%d seeds violated Definition 4.1; first failing %s",
			stats.Failures, stats.Seeds, stats.First)
	}
	if stats.Runs != count {
		t.Fatalf("only %d/%d runs completed", stats.Runs, count)
	}
	// Guard against a vacuous sweep: consensus must actually be deciding.
	if stats.DecidedNodes == 0 || stats.NodeCommits == 0 {
		t.Fatalf("sweep vacuous: %d decided nodes, %d commits", stats.DecidedNodes, stats.NodeCommits)
	}
	t.Logf("conformance: %d runs, %d/%d nodes decided, %d commits, %d messages",
		stats.Runs, stats.DecidedNodes, stats.Nodes, stats.NodeCommits, stats.Metrics.MessagesSent)
}

// TestRandomizedGatherConformance sweeps random valid systems through the
// constant-round gather (Algorithm 3): every process must g-deliver and
// every run must exhibit a common core — the §3.3 soundness claim, now at
// randomized scale.
func TestRandomizedGatherConformance(t *testing.T) {
	count := 60
	if testing.Short() {
		count = 10
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
			Latency: sim.UniformLatency{Min: 1, Max: sim.VirtualTime(5 + rng.Intn(40))},
			Seed:    seed,
		}
	}, func(cfg gather.RunConfig, res gather.RunResult) error {
		if len(res.Outputs) != cfg.Trust.N() {
			return fmt.Errorf("only %d/%d processes g-delivered", len(res.Outputs), cfg.Trust.N())
		}
		return nil
	})
	if stats.Failures > 0 {
		t.Fatalf("%d/%d gather seeds failed; first failing %s", stats.Failures, stats.Seeds, stats.First)
	}
	if stats.CommonCores != stats.Runs {
		t.Fatalf("common core missing in %d/%d runs", stats.Runs-stats.CommonCores, stats.Runs)
	}
}

// TestRandomizedParallelDeliveryConformance re-runs a slice of the
// conformance sweep with parallel same-time delivery enabled: the
// Definition 4.1 properties must hold under the commit-order schedules
// too, and every run must stay byte-identical to its own 1-worker
// execution (the parallel determinism contract, exercised across many
// random systems, fault patterns and latency ranges — under -race this
// doubles as the concurrency audit of the protocol handlers).
func TestRandomizedParallelDeliveryConformance(t *testing.T) {
	count := 60
	if testing.Short() {
		count = 10
	}
	mk := func(workers int) func(seed int64) RiderConfig {
		return func(seed int64) RiderConfig {
			cfg := conformanceConfig(seed)
			cfg.DeliveryWorkers = workers
			return cfg
		}
	}
	ref := SweepRider(sim.SeedRange(1, count), mk(1), CheckScenarioProperties)
	if ref.Failures > 0 {
		t.Fatalf("%d/%d parallel seeds violated Definition 4.1; first failing %s",
			ref.Failures, ref.Seeds, ref.First)
	}
	for _, workers := range []int{3} {
		stats := SweepRider(sim.SeedRange(1, count), mk(workers), CheckScenarioProperties)
		if stats.Failures > 0 {
			t.Fatalf("workers=%d: %d/%d seeds failed; first %s", workers, stats.Failures, stats.Seeds, stats.First)
		}
		if !reflect.DeepEqual(stats, ref) {
			t.Fatalf("workers=%d: aggregate sweep stats diverged from 1-worker run:\n got %+v\nwant %+v",
				workers, stats, ref)
		}
	}
}

package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gather"
	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/types"
)

// Determinism regressions: the simulator's reproducibility contract (same
// seed ⇒ identical execution) and the sweep engine's worker-count
// independence, pinned at the protocol level.

// TestSameSeedIdenticalMetrics runs each stack twice with the same seed
// and requires identical outcomes: what every process delivered and
// committed (gather outputs; service reports with their snapshot bytes),
// the full Metrics including the per-type breakdown, and the end time. A
// wall-clock read, a global random draw or a map order that reaches
// protocol state, sends or metrics shows up here.
func TestSameSeedIdenticalMetrics(t *testing.T) {
	type outcome struct {
		metrics *sim.Metrics
		end     sim.VirtualTime
		nodes   any
	}
	fig1 := quorum.Counterexample()
	rider := func(cfg RiderConfig) func() outcome {
		return func() outcome {
			res := RunRider(cfg)
			return outcome{res.Metrics, res.EndTime, res.Nodes}
		}
	}
	gathered := func(kind gather.Kind) func() outcome {
		return func() outcome {
			res := gather.RunCluster(gather.RunConfig{Kind: kind, Trust: fig1, Mode: gather.UseReliable, Seed: 5})
			return outcome{res.Metrics, res.EndTime, fmt.Sprint(res.Outputs, res.SSnapshots)}
		}
	}
	cases := []struct {
		name string
		run  func() outcome
	}{
		{"asymmetric", rider(RiderConfig{Kind: Asymmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 6, TxPerBlock: 2, Seed: 11, CoinSeed: 13})},
		{"symmetric", rider(RiderConfig{Kind: Symmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 6, TxPerBlock: 2, Seed: 11, CoinSeed: 13})},
		{"fig1-revealed-gc", rider(RiderConfig{Kind: Asymmetric, Trust: fig1, NumWaves: 6, TxPerBlock: 2, Seed: 3, CoinSeed: 4, RevealedCoin: true, GCDepth: 4})},
		{"gather-" + gather.KindThreeRound.String(), gathered(gather.KindThreeRound)},
		{"gather-" + gather.KindConstantRound.String(), gathered(gather.KindConstantRound)},
		{"service-partition-heal", func() outcome {
			def, _ := scenario.Find("partition-heal")
			cfg := service.Config{Trust: quorum.NewThreshold(4, 1), CoinSeed: 2, StopAfterWaves: 8, RevealedCoin: true}
			res := service.Run(ServiceScenarioConfig(def, cfg, 3))
			return outcome{res.Metrics, res.EndTime, res.Replicas}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.run(), tc.run()
			if !reflect.DeepEqual(a.metrics, b.metrics) {
				t.Errorf("same seed, different metrics:\n%+v\n%+v", a.metrics, b.metrics)
			}
			if a.end != b.end {
				t.Errorf("same seed, different end times: %d vs %d", a.end, b.end)
			}
			if !reflect.DeepEqual(a.nodes, b.nodes) {
				t.Errorf("same seed, different deliveries, commits or outputs")
			}
		})
	}
}

// riderSweepStats renders a sweep's aggregate to a string so worker-count
// comparisons are byte-level (the satellite acceptance criterion).
func riderSweepRender(t *testing.T, workers int) (RiderSweepStats, string) {
	t.Helper()
	trust := quorum.NewThreshold(4, 1)
	correct := types.FullSet(4)
	stats := Sweeper{Workers: workers}.SweepRider(sim.SeedRange(1, 12), func(seed int64) RiderConfig {
		return RiderConfig{
			Kind: Asymmetric, Trust: trust, NumWaves: 5, TxPerBlock: 1,
			Seed: seed, CoinSeed: seed * 7,
		}
	}, func(res RiderResult) error { return res.CheckTotalOrder(correct) })
	scalars := stats
	scalars.Metrics = nil // pointer identity must not leak into the render
	return stats, fmt.Sprintf("%+v|%+v", scalars, *stats.Metrics)
}

// TestSweepRiderWorkerCountIndependence: identical aggregated stats —
// including merged metrics and first-failure bookkeeping — for worker
// counts 1, 2 and GOMAXPROCS.
func TestSweepRiderWorkerCountIndependence(t *testing.T) {
	base, serial := riderSweepRender(t, 1)
	if base.Failures > 0 {
		t.Fatalf("baseline sweep failed: %s", base.First)
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		stats, got := riderSweepRender(t, workers)
		if !reflect.DeepEqual(base, stats) {
			t.Errorf("stats differ between 1 and %d workers:\n%+v\n%+v", workers, base, stats)
		}
		if got != serial {
			t.Errorf("rendered stats differ between 1 and %d workers:\n%s\n%s", workers, serial, got)
		}
	}
}

// TestSweepReportsFirstFailingSeed plants a check that rejects two known
// seeds and requires the sweeper to name the earlier one.
func TestSweepReportsFirstFailingSeed(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	for _, workers := range []int{1, 3} {
		stats := Sweeper{Workers: workers}.SweepRider(sim.SeedRange(1, 10), func(seed int64) RiderConfig {
			return RiderConfig{Kind: Asymmetric, Trust: trust, NumWaves: 2, Seed: seed, CoinSeed: seed}
		}, func(res RiderResult) error {
			if res.Config.Seed == 4 || res.Config.Seed == 7 {
				return fmt.Errorf("planted failure")
			}
			return nil
		})
		if stats.Failures != 2 {
			t.Fatalf("workers=%d: failures = %d, want 2", workers, stats.Failures)
		}
		if stats.First == nil || stats.First.Seed != 4 {
			t.Fatalf("workers=%d: first failure = %v, want seed 4", workers, stats.First)
		}
	}
}

// TestSweepRiderSurfacesPanicSeed: a panicking run must be attributed to
// its seed, not tear the sweep down.
func TestSweepRiderSurfacesPanicSeed(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	stats := Sweeper{Workers: 2}.SweepRider(sim.SeedRange(1, 6), func(seed int64) RiderConfig {
		if seed == 3 {
			panic("planted panic")
		}
		return RiderConfig{Kind: Asymmetric, Trust: trust, NumWaves: 2, Seed: seed, CoinSeed: seed}
	}, nil)
	if stats.Runs != 5 {
		t.Fatalf("runs = %d, want 5 completed", stats.Runs)
	}
	if stats.Failures != 1 || stats.First == nil || stats.First.Seed != 3 {
		t.Fatalf("panic not attributed: failures=%d first=%v", stats.Failures, stats.First)
	}
}

// TestRiderParallelDeliveryDeterministic pins the whole consensus stack
// of each node kind under the simulator's parallel same-time delivery:
// node results and the full Metrics (incl. ByType) are byte-identical
// across 1, 2 and GOMAXPROCS delivery workers, and the protocol
// properties hold. Under -race it is also one of the checks that no
// handler of either kind writes shared memory during parallel delivery.
func TestRiderParallelDeliveryDeterministic(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	correct := types.FullSet(4)
	for _, kind := range []RiderKind{Asymmetric, Symmetric} {
		t.Run(kind.String(), func(t *testing.T) {
			mk := func(workers int) RiderResult {
				return RunRider(RiderConfig{
					Kind: kind, Trust: trust, NumWaves: 6, TxPerBlock: 2,
					Seed: 17, CoinSeed: 19, DeliveryWorkers: workers,
				})
			}
			ref := mk(1)
			if err := ref.CheckTotalOrder(correct); err != nil {
				t.Fatal(err)
			}
			if err := ref.CheckIntegrity(correct); err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, runtime.GOMAXPROCS(0) + 1} {
				res := mk(w)
				if !reflect.DeepEqual(res.Metrics, ref.Metrics) {
					t.Fatalf("workers=%d: metrics diverged:\n got %+v\nwant %+v", w, res.Metrics, ref.Metrics)
				}
				if res.EndTime != ref.EndTime {
					t.Fatalf("workers=%d: end time %d, want %d", w, res.EndTime, ref.EndTime)
				}
				if !reflect.DeepEqual(res.Nodes, ref.Nodes) {
					t.Fatalf("workers=%d: node results diverged from 1-worker run", w)
				}
			}
		})
	}
}

// TestRunRiderEventBudget pins the MaxEvents plumbing: a tiny budget
// truncates the run and flags HitLimit, the default budget leaves a
// quiescing run untouched, and a negative budget means unbounded.
func TestRunRiderEventBudget(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	base := RiderConfig{Kind: Asymmetric, Trust: trust, NumWaves: 3, Seed: 1, CoinSeed: 2}

	tiny := base
	tiny.MaxEvents = 10
	if res := RunRider(tiny); !res.HitLimit {
		t.Fatal("10-event budget not reported as hit")
	}
	if res := RunRider(base); res.HitLimit {
		t.Fatal("default budget flagged on a quiescing run")
	}
	unbounded := base
	unbounded.MaxEvents = -1
	if res := RunRider(unbounded); res.HitLimit {
		t.Fatal("unbounded run flagged HitLimit")
	}

	// The budget threads through the Sweeper as a per-run counter.
	sw := Sweeper{Workers: 1}
	stats := sw.SweepRider([]int64{1, 2, 3}, func(seed int64) RiderConfig {
		cfg := tiny
		cfg.Seed = seed
		return cfg
	}, nil)
	if stats.HitLimits != 3 {
		t.Fatalf("sweep HitLimits = %d, want 3", stats.HitLimits)
	}

	// Gather runs share the budget convention, and SweepGather surfaces
	// truncations — a non-quiescing schedule cannot hang a gather sweep.
	gcfg := gather.RunConfig{Kind: gather.KindConstantRound, Trust: trust, Mode: gather.UsePlain, Seed: 1, MaxEvents: 3}
	if res := gather.RunCluster(gcfg); !res.HitLimit {
		t.Fatal("gather 3-event budget not reported as hit")
	}
	gstats := Sweeper{Workers: 1}.SweepGather([]int64{1, 2}, func(seed int64) gather.RunConfig {
		cfg := gcfg
		cfg.Seed = seed
		return cfg
	}, nil)
	if gstats.HitLimits != 2 {
		t.Fatalf("gather sweep HitLimits = %d, want 2", gstats.HitLimits)
	}
}

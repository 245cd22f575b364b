package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gather"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// Determinism regressions: the simulator's reproducibility contract (same
// seed ⇒ identical execution) and the sweep engine's worker-count
// independence, pinned at the protocol level.

// TestSameSeedIdenticalMetrics runs the full consensus stack twice with
// the same seed and requires bit-identical metrics: message count, byte
// count and the per-type breakdown.
func TestSameSeedIdenticalMetrics(t *testing.T) {
	run := func() RiderResult {
		return RunRider(RiderConfig{
			Kind: Asymmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 6,
			TxPerBlock: 2, Seed: 11, CoinSeed: 13,
		})
	}
	a, b := run(), run()
	if a.Metrics.MessagesSent != b.Metrics.MessagesSent ||
		a.Metrics.MessagesDelivered != b.Metrics.MessagesDelivered ||
		a.Metrics.MessagesDropped != b.Metrics.MessagesDropped ||
		a.Metrics.BytesSent != b.Metrics.BytesSent {
		t.Fatalf("same seed, different scalar metrics:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if !reflect.DeepEqual(a.Metrics.ByType, b.Metrics.ByType) {
		t.Fatalf("same seed, different per-type counts:\n%v\n%v", a.Metrics.ByType, b.Metrics.ByType)
	}
	if a.EndTime != b.EndTime {
		t.Fatalf("same seed, different end times: %d vs %d", a.EndTime, b.EndTime)
	}
	for p, na := range a.Nodes {
		nb := b.Nodes[p]
		if len(na.Deliveries) != len(nb.Deliveries) {
			t.Fatalf("node %v delivered %d vs %d vertices", p, len(na.Deliveries), len(nb.Deliveries))
		}
		for i := range na.Deliveries {
			if na.Deliveries[i].Ref != nb.Deliveries[i].Ref {
				t.Fatalf("node %v delivery %d differs: %v vs %v", p, i, na.Deliveries[i].Ref, nb.Deliveries[i].Ref)
			}
		}
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
// under the simulator's parallel same-time delivery: node results and the
// full Metrics (incl. ByType) are byte-identical across 1, 2 and
// GOMAXPROCS delivery workers, and the protocol properties hold.
func TestRiderParallelDeliveryDeterministic(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	correct := types.FullSet(4)
	mk := func(workers int) RiderResult {
		return RunRider(RiderConfig{
			Kind: Asymmetric, Trust: trust, NumWaves: 6, TxPerBlock: 2,
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

package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
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

// forEachProcs runs f under GOMAXPROCS 1, 2 and NumCPU and restores the
// setting afterwards.
func forEachProcs(f func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

// TestSweepRiderWorkerCountIndependence: at every GOMAXPROCS, SweepRider's
// aggregate — merged metrics and first-failure bookkeeping included —
// equals a serial for loop over RunRider.
func TestSweepRiderWorkerCountIndependence(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	correct := types.FullSet(4)
	seeds := sim.SeedRange(1, 12)
	mk := func(seed int64) RiderConfig {
		return RiderConfig{
			Kind: Asymmetric, Trust: trust, NumWaves: 5, TxPerBlock: 1,
			Seed: seed, CoinSeed: seed * 7,
		}
	}
	check := func(res RiderResult) (Verdict, error) { return Held, res.CheckTotalOrder(correct) }

	want := RiderSweepStats{Seeds: len(seeds), Metrics: sim.MergeMetrics()}
	for _, seed := range seeds {
		cfg := mk(seed)
		r := RunRider(cfg)
		if _, err := check(r); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want.Runs++
		want.Nodes += len(r.Nodes)
		var blocks []int
		maxCommits := 0
		for _, nr := range r.Nodes {
			if nr.DecidedWave > 0 {
				want.DecidedNodes++
			}
			maxCommits = max(maxCommits, len(nr.Commits))
			want.NodeCommits += len(nr.Commits)
			want.NodeWaves += cfg.NumWaves
			blocks = append(blocks, len(nr.Blocks))
		}
		slices.Sort(blocks)
		want.MaxCommits += maxCommits
		want.MedianBlocks += blocks[len(blocks)/2]
		if r.HitLimit {
			want.HitLimits++
		}
		want.EndTime += r.EndTime
		want.Metrics = sim.MergeMetrics(want.Metrics, r.Metrics)
	}
	forEachProcs(func(procs int) {
		if got := SweepRider(seeds, mk, check); !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: sweep differs from the serial loop:\n got %+v\nwant %+v", procs, got, want)
		}
	})
}

// TestSweepReportsFirstFailingSeed plants a check that rejects two known
// seeds and requires the sweep to name the earlier one.
func TestSweepReportsFirstFailingSeed(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	stats := SweepRider(sim.SeedRange(1, 10), func(seed int64) RiderConfig {
		return RiderConfig{Kind: Asymmetric, Trust: trust, NumWaves: 2, Seed: seed, CoinSeed: seed}
	}, func(res RiderResult) (Verdict, error) {
		if res.Config.Seed == 4 || res.Config.Seed == 7 {
			return Held, fmt.Errorf("planted failure")
		}
		return Held, nil
	})
	if stats.Failures != 2 {
		t.Fatalf("failures = %d, want 2", stats.Failures)
	}
	if stats.First == nil || stats.First.Seed != 4 {
		t.Fatalf("first failure = %v, want seed 4", stats.First)
	}
}

// TestSweepRiderSurfacesPanicSeed: a panicking run must be attributed to
// its seed, not tear the sweep down.
func TestSweepRiderSurfacesPanicSeed(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	stats := SweepRider(sim.SeedRange(1, 6), func(seed int64) RiderConfig {
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

	// The budget threads through SweepRider as a per-run counter.
	stats := SweepRider([]int64{1, 2, 3}, func(seed int64) RiderConfig {
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
	gstats := SweepGather([]int64{1, 2}, func(seed int64) gather.RunConfig {
		cfg := gcfg
		cfg.Seed = seed
		return cfg
	}, nil)
	if gstats.HitLimits != 2 {
		t.Fatalf("gather sweep HitLimits = %d, want 2", gstats.HitLimits)
	}
}

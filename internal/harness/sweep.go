package harness

import (
	"fmt"
	"sort"

	"repro/internal/gather"
	"repro/internal/sim"
	"repro/internal/types"
)

// The Sweeper layer: statistical-scale protocol execution. Each SweepXxx
// method fans RunRider / gather executions out over a seed range via
// sim.Sweep and reduces them — in seed order, so every aggregate and the
// "first failing seed" are worker-count independent — into a compact stats
// struct. The experiments, the cmd binaries and the randomized conformance
// suite all drive their multi-seed loops through this layer.

// Sweeper fans protocol executions out over seed ranges.
type Sweeper struct {
	// Workers bounds the worker pool (0 = GOMAXPROCS).
	Workers int
}

// DefaultSweepWorkers caps the worker pools of the package's own
// experiments (ExpSmallSystems, ExpFaults, …), whose Run signature leaves
// no room to thread a Sweeper through. 0 means GOMAXPROCS. cmd/experiments
// sets it once, from its -workers flag, before running anything.
var DefaultSweepWorkers int

// SweepFailure names the first seed (in seed order) whose run failed its
// check or panicked.
type SweepFailure struct {
	Seed int64
	Err  error
}

// String implements fmt.Stringer.
func (f *SweepFailure) String() string {
	return fmt.Sprintf("seed %d: %v", f.Seed, f.Err)
}

// foldFailures walks a sweep in seed order and accounts panics and
// per-run check errors.
func foldFailures[T any](res *sim.SweepResult[T], errOf func(T) error) (failures int, first *SweepFailure) {
	for i := range res.Values {
		var err error
		if p := res.PanicAt(i); p != nil {
			err = p
		} else if e := errOf(res.Values[i]); e != nil {
			err = e
		}
		if err != nil {
			failures++
			if first == nil {
				first = &SweepFailure{Seed: res.Seeds[i], Err: err}
			}
		}
	}
	return failures, first
}

// Rider sweeps. -----------------------------------------------------------

// riderRun is the per-seed record a rider sweep reduces over.
type riderRun struct {
	err          error
	nodes        int
	decidedNodes int
	maxCommits   int
	nodeCommits  int
	nodeWaves    int
	medianBlocks int
	hitLimit     bool
	endTime      sim.VirtualTime
	metrics      *sim.Metrics
}

// RiderSweepStats aggregates a multi-seed consensus sweep. The counters are
// sums over the completed runs; divide by Runs for per-run means.
type RiderSweepStats struct {
	// Seeds is the number of seeds swept; Runs the number that completed
	// (panicked seeds excluded). Every seed either passes or counts in
	// Failures, so "seeds passed" is Seeds - Failures.
	Seeds int
	Runs  int
	// Failures counts seeds whose run failed its check or panicked; First
	// names the earliest one in seed order.
	Failures int
	First    *SweepFailure

	// Nodes / DecidedNodes count protocol (non-faulty) nodes across runs,
	// and how many of them decided at least one wave.
	Nodes, DecidedNodes int
	// MaxCommits sums each run's maximum commit count across nodes.
	MaxCommits int
	// NodeCommits / NodeWaves sum commits and configured waves over every
	// protocol node — their ratio is the empirical waves-per-commit of
	// Lemma 4.4.
	NodeCommits, NodeWaves int
	// MedianBlocks sums each run's median node's delivered block count.
	MedianBlocks int
	// HitLimits counts runs truncated at their MaxEvents budget instead
	// of reaching quiescence — a non-zero value flags a runaway schedule
	// (or a budget set too low) somewhere in the sweep.
	HitLimits int
	// EndTime sums virtual completion times.
	EndTime sim.VirtualTime
	// Metrics is the merged network traffic of all completed runs.
	Metrics *sim.Metrics
}

// WavesPerCommit returns the sweep-wide empirical waves-per-commit
// (ok=false if nothing committed).
func (s RiderSweepStats) WavesPerCommit() (float64, bool) {
	if s.NodeCommits == 0 {
		return 0, false
	}
	return float64(s.NodeWaves) / float64(s.NodeCommits), true
}

// SweepRider runs mk(seed) through RunRider for every seed and aggregates.
// check, if non-nil, is evaluated against every completed run; the first
// failure (in seed order) lands in Stats.First.
func (s Sweeper) SweepRider(seeds []int64, mk func(seed int64) RiderConfig, check func(RiderResult) error) RiderSweepStats {
	res := sim.Sweep(seeds, s.Workers, func(seed int64) riderRun {
		cfg := mk(seed)
		r := RunRider(cfg)
		run := riderRun{
			nodes:    len(r.Nodes),
			hitLimit: r.HitLimit,
			endTime:  r.EndTime,
			metrics:  r.Metrics,
		}
		var blocks []int
		for _, nr := range r.Nodes {
			if nr.DecidedWave > 0 {
				run.decidedNodes++
			}
			if len(nr.Commits) > run.maxCommits {
				run.maxCommits = len(nr.Commits)
			}
			run.nodeCommits += len(nr.Commits)
			run.nodeWaves += cfg.NumWaves
			blocks = append(blocks, len(nr.Blocks))
		}
		if len(blocks) > 0 {
			sort.Ints(blocks)
			run.medianBlocks = blocks[len(blocks)/2]
		}
		if check != nil {
			run.err = check(r)
		}
		return run
	})

	stats := sim.Reduce(res, RiderSweepStats{Metrics: sim.MergeMetrics()}, func(acc RiderSweepStats, _ int64, run riderRun) RiderSweepStats {
		acc.Runs++
		acc.Nodes += run.nodes
		acc.DecidedNodes += run.decidedNodes
		acc.MaxCommits += run.maxCommits
		acc.NodeCommits += run.nodeCommits
		acc.NodeWaves += run.nodeWaves
		acc.MedianBlocks += run.medianBlocks
		if run.hitLimit {
			acc.HitLimits++
		}
		acc.EndTime += run.endTime
		acc.Metrics = sim.MergeMetrics(acc.Metrics, run.metrics)
		return acc
	})
	stats.Seeds = len(res.Seeds)
	stats.Failures, stats.First = foldFailures(res, func(r riderRun) error { return r.err })
	return stats
}

// Gather sweeps. ----------------------------------------------------------

// gatherRun is the per-seed record a gather sweep reduces over.
type gatherRun struct {
	err        error
	delivered  int
	commonCore bool
	hitLimit   bool
	endTime    sim.VirtualTime
	metrics    *sim.Metrics
}

// GatherSweepStats aggregates a multi-seed gather sweep. Seeds/Runs/
// Failures follow the RiderSweepStats conventions.
type GatherSweepStats struct {
	Seeds    int
	Runs     int
	Failures int
	First    *SweepFailure

	// Delivered counts processes that g-delivered, across runs.
	Delivered int
	// CommonCores counts runs whose outputs contained a non-empty common
	// core (the §3 soundness criterion).
	CommonCores int
	// HitLimits counts runs truncated at their MaxEvents budget.
	HitLimits int
	EndTime   sim.VirtualTime
	Metrics   *sim.Metrics
}

// SweepGather runs mk(seed) through gather.RunCluster for every seed. Each
// run's outputs are analyzed for a common core among all processes; check,
// if non-nil, can impose stricter per-run conditions (it receives the
// run's config because gather.RunResult does not embed it).
func (s Sweeper) SweepGather(seeds []int64, mk func(seed int64) gather.RunConfig, check func(gather.RunConfig, gather.RunResult) error) GatherSweepStats {
	res := sim.Sweep(seeds, s.Workers, func(seed int64) gatherRun {
		cfg := mk(seed)
		r := gather.RunCluster(cfg)
		n := cfg.Trust.N()
		core := gather.AnalyzeCommonCore(n, r.SSnapshots, r.Outputs, types.FullSet(n))
		run := gatherRun{
			delivered:  len(r.Outputs),
			commonCore: !core.IsEmpty(),
			hitLimit:   r.HitLimit,
			endTime:    r.EndTime,
			metrics:    r.Metrics,
		}
		if check != nil {
			run.err = check(cfg, r)
		}
		return run
	})

	stats := sim.Reduce(res, GatherSweepStats{Metrics: sim.MergeMetrics()}, func(acc GatherSweepStats, _ int64, run gatherRun) GatherSweepStats {
		acc.Runs++
		acc.Delivered += run.delivered
		if run.commonCore {
			acc.CommonCores++
		}
		if run.hitLimit {
			acc.HitLimits++
		}
		acc.EndTime += run.endTime
		acc.Metrics = sim.MergeMetrics(acc.Metrics, run.metrics)
		return acc
	})
	stats.Seeds = len(res.Seeds)
	stats.Failures, stats.First = foldFailures(res, func(r gatherRun) error { return r.err })
	return stats
}

package harness

import (
	"fmt"
	"sort"

	"repro/internal/gather"
	"repro/internal/sim"
	"repro/internal/types"
)

// Multi-seed protocol sweeps. SweepRider and SweepGather run one
// RunRider or gather execution per seed through sim.Sweep and fold the
// results in seed order into a compact stats struct, so every aggregate
// and the "first failing seed" are the same at every GOMAXPROCS. The
// multi-seed experiments and the randomized conformance suites run
// through them.

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

// failure returns the failure count and record of one seed's run.
func failure(seed int64, err error) (int, *SweepFailure) {
	if err == nil {
		return 0, nil
	}
	return 1, &SweepFailure{Seed: seed, Err: err}
}

// Rider sweeps. -----------------------------------------------------------

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
	// Vacuous counts the seeds whose check passed as Vacuous.
	Vacuous int

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
	// HeldReadies and WaitingReadies sum the runs' RiderResult fields.
	HeldReadies, WaitingReadies int
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
// failure (in seed order) lands in Stats.First, and a vacuous pass counts
// in Stats.Vacuous.
func SweepRider(seeds []int64, mk func(seed int64) RiderConfig, check func(RiderResult) (Verdict, error)) RiderSweepStats {
	runs, errs := sim.Sweep(seeds, func(seed int64) RiderSweepStats {
		cfg := mk(seed)
		r := RunRider(cfg)
		s := RiderSweepStats{Runs: 1, Nodes: len(r.Nodes), EndTime: r.EndTime, Metrics: r.Metrics,
			HeldReadies: r.HeldReadies, WaitingReadies: r.WaitingReadies}
		if r.HitLimit {
			s.HitLimits = 1
		}
		var blocks []int
		for _, nr := range r.Nodes {
			if nr.DecidedWave > 0 {
				s.DecidedNodes++
			}
			s.MaxCommits = max(s.MaxCommits, len(nr.Commits))
			s.NodeCommits += len(nr.Commits)
			s.NodeWaves += cfg.NumWaves
			blocks = append(blocks, len(nr.Blocks))
		}
		if len(blocks) > 0 {
			sort.Ints(blocks)
			s.MedianBlocks = blocks[len(blocks)/2]
		}
		if check != nil {
			verdict, err := check(r)
			s.Failures, s.First = failure(seed, err)
			if err == nil && verdict == Vacuous {
				s.Vacuous = 1
			}
		}
		return s
	})

	total := RiderSweepStats{Seeds: len(seeds), Metrics: sim.MergeMetrics()}
	for i, s := range runs {
		if errs[i] != nil {
			s.Failures, s.First = failure(seeds[i], errs[i])
		}
		total.Runs += s.Runs
		total.Failures += s.Failures
		if total.First == nil {
			total.First = s.First
		}
		total.Vacuous += s.Vacuous
		total.Nodes += s.Nodes
		total.DecidedNodes += s.DecidedNodes
		total.MaxCommits += s.MaxCommits
		total.NodeCommits += s.NodeCommits
		total.NodeWaves += s.NodeWaves
		total.MedianBlocks += s.MedianBlocks
		total.HitLimits += s.HitLimits
		total.EndTime += s.EndTime
		total.HeldReadies += s.HeldReadies
		total.WaitingReadies += s.WaitingReadies
		total.Metrics = sim.MergeMetrics(total.Metrics, s.Metrics)
	}
	return total
}

// Gather sweeps. ----------------------------------------------------------

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
func SweepGather(seeds []int64, mk func(seed int64) gather.RunConfig, check func(gather.RunConfig, gather.RunResult) error) GatherSweepStats {
	runs, errs := sim.Sweep(seeds, func(seed int64) GatherSweepStats {
		cfg := mk(seed)
		r := gather.RunCluster(cfg)
		n := cfg.Trust.N()
		s := GatherSweepStats{Runs: 1, Delivered: len(r.Outputs), EndTime: r.EndTime, Metrics: r.Metrics}
		if !gather.AnalyzeCommonCore(n, r.SSnapshots, r.Outputs, types.FullSet(n)).IsEmpty() {
			s.CommonCores = 1
		}
		if r.HitLimit {
			s.HitLimits = 1
		}
		if check != nil {
			s.Failures, s.First = failure(seed, check(cfg, r))
		}
		return s
	})

	total := GatherSweepStats{Seeds: len(seeds), Metrics: sim.MergeMetrics()}
	for i, s := range runs {
		if errs[i] != nil {
			s.Failures, s.First = failure(seeds[i], errs[i])
		}
		total.Runs += s.Runs
		total.Failures += s.Failures
		if total.First == nil {
			total.First = s.First
		}
		total.Delivered += s.Delivered
		total.CommonCores += s.CommonCores
		total.HitLimits += s.HitLimits
		total.EndTime += s.EndTime
		total.Metrics = sim.MergeMetrics(total.Metrics, s.Metrics)
	}
	return total
}

package harness

import (
	"maps"
	"slices"

	"repro/internal/scenario"
	"repro/internal/service"
)

// ServiceStats aggregates a run's sustained-throughput and commit-latency
// numbers across replicas — the quantities BenchmarkServiceSustained
// reports.
type ServiceStats struct {
	// Throughput is the mean applied transactions per virtual-time unit
	// per replica.
	Throughput float64
	// CommitRate is the mean wave commits per virtual-time unit per
	// replica.
	CommitRate float64
	// Latency pools the per-replica commit-latency summaries: Count and
	// Mean are exact over the pooled population; P50/P99/Max are the
	// worst (largest) per-replica values, the conservative bound a gate
	// wants.
	Latency service.LatencySummary
	// PeakLiveVertices is the largest GC-bounded DAG size any replica
	// held at any point — the bounded-memory headline number.
	PeakLiveVertices int
	// Rejected totals the client commands refused by admission control.
	Rejected int
}

// SummarizeService computes the run-level service statistics.
func SummarizeService(res service.Result) ServiceStats {
	var st ServiceStats
	if len(res.Replicas) == 0 || res.EndTime == 0 {
		return st
	}
	var applied, commits int
	var latSum float64
	// In PID order: the float sum latSum depends on the order of its terms.
	for _, p := range slices.Sorted(maps.Keys(res.Replicas)) {
		rep := res.Replicas[p]
		applied += rep.Applied
		commits += rep.Commits
		st.Rejected += rep.Rejected
		l := rep.Latency
		st.Latency.Count += l.Count
		latSum += l.Mean * float64(l.Count)
		if l.P50 > st.Latency.P50 {
			st.Latency.P50 = l.P50
		}
		if l.P99 > st.Latency.P99 {
			st.Latency.P99 = l.P99
		}
		if l.Max > st.Latency.Max {
			st.Latency.Max = l.Max
		}
		if rep.PeakLive.DAGVertices > st.PeakLiveVertices {
			st.PeakLiveVertices = rep.PeakLive.DAGVertices
		}
	}
	n := float64(len(res.Replicas))
	t := float64(res.EndTime)
	st.Throughput = float64(applied) / n / t
	st.CommitRate = float64(commits) / n / t
	if st.Latency.Count > 0 {
		st.Latency.Mean = latSum / float64(st.Latency.Count)
	}
	return st
}

// ServiceScenarioConfig instantiates the named adversarial scenario for
// the given seed and installs its fault plane and node wrappers into cfg —
// the service-mode counterpart of ScenarioRiderConfig.
func ServiceScenarioConfig(def scenario.Definition, cfg service.Config, seed int64) service.Config {
	sc := def.Build(cfg.Trust.N(), seed)
	cfg.Seed = seed
	cfg.Fault = sc.FaultPlane()
	cfg.Wrap = sc.WrapNode
	return cfg
}

package harness

import (
	"repro/internal/scenario"
	"repro/internal/service"
)

// ServiceConfig configures a long-lived replicated service run: pipelined
// client batching, mandatory DAG garbage collection, and periodic
// snapshot/compaction (see internal/service for the lifecycle).
type ServiceConfig = service.Config

// ServiceResult is the outcome of one service run.
type ServiceResult = service.Result

// ServiceReport summarizes one replica at the end of a service run.
type ServiceReport = service.Report

// ServiceSnapshot is one snapshot/compaction point of a replica.
type ServiceSnapshot = service.Snapshot

// ServiceLatency summarizes commit latency in virtual-time units.
type ServiceLatency = service.LatencySummary

// RunService executes one service cluster until its stop condition,
// applying the harness-wide DeliveryWorkers default exactly like RunRider.
func RunService(cfg ServiceConfig) ServiceResult {
	cfg.DeliveryWorkers = resolveDeliveryWorkers(cfg.DeliveryWorkers)
	return service.Run(cfg)
}

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
	Latency ServiceLatency
	// PeakLiveVertices is the largest GC-bounded DAG size any replica
	// held at any point — the bounded-memory headline number.
	PeakLiveVertices int
	// Rejected totals the client commands refused by admission control.
	Rejected int
}

// SummarizeService computes the run-level service statistics.
func SummarizeService(res ServiceResult) ServiceStats {
	var st ServiceStats
	if len(res.Replicas) == 0 || res.EndTime == 0 {
		return st
	}
	var applied, commits int
	var latSum float64
	//lint:ordered commutative sums and max-latches only
	for _, rep := range res.Replicas {
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

// CheckServiceSnapshots verifies the service-mode agreement invariant: at
// every decided wave two replicas both snapshotted, their machine states
// are byte-identical. It returns the number of cross-replica snapshot
// comparisons made (0 means the run produced no common snapshot wave,
// which callers should treat as a vacuous check).
func CheckServiceSnapshots(res ServiceResult) (int, error) {
	return service.CompareSnapshots(res)
}

// ServiceScenarioConfig instantiates the named adversarial scenario for
// the given seed and installs its fault plane and node wrappers into cfg —
// the service-mode counterpart of ScenarioRiderConfig.
func ServiceScenarioConfig(def scenario.Definition, cfg ServiceConfig, seed int64) ServiceConfig {
	sc := def.Build(cfg.Trust.N(), seed)
	cfg.Seed = seed
	cfg.Fault = sc.FaultPlane()
	cfg.Wrap = sc.WrapNode
	return cfg
}

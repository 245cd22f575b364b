package asymdag

import (
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/rider"
	"repro/internal/sim"
)

// ClusterConfig configures an in-process consensus cluster running the
// paper's asymmetric protocol.
type ClusterConfig struct {
	// Trust is the quorum assumption shared by all nodes (a Threshold or
	// an explicit *System).
	Trust Assumption
	// NumWaves bounds the run; nodes stop after round 4*NumWaves.
	NumWaves int
	// Seed drives the network schedule, CoinSeed the leader election.
	Seed, CoinSeed int64
	// Latency is the network model (default: uniform 1..20).
	Latency LatencyModel
	// BatchSize caps transactions per vertex (default 16).
	BatchSize int
}

// Cluster is a simulated deployment of the asymmetric DAG consensus: one
// node per process, an in-memory asynchronous network, and per-node
// transaction queues. Create with NewCluster, feed with Submit, execute
// with Run.
type Cluster struct {
	cfg    ClusterConfig
	queues []*rider.QueueWorkload
	nodes  []sim.Node
}

// NewCluster creates a cluster over cfg.Trust.N() processes.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.NumWaves <= 0 {
		cfg.NumWaves = 10
	}
	n := cfg.Trust.N()
	c := &Cluster{cfg: cfg}
	cn := coin.NewPRF(cfg.CoinSeed, n)
	for i := 0; i < n; i++ {
		q := &rider.QueueWorkload{BatchSize: cfg.BatchSize}
		c.queues = append(c.queues, q)
		c.nodes = append(c.nodes, core.NewNode(core.Config{
			Trust:    cfg.Trust,
			Coin:     cn,
			Workload: q,
			MaxRound: 4 * cfg.NumWaves,
		}))
	}
	return c
}

// Submit enqueues transactions at the given process; they will be packed
// into its future vertices. Call before Run.
func (c *Cluster) Submit(p ProcessID, txs ...string) {
	c.queues[p].Submit(txs...)
}

// Run executes the cluster to network quiescence, or to the simulator's
// default event budget (RiderResult.HitLimit reports a truncated run), and
// returns the outcome. Each process's delivered transaction log is
// Nodes[p].Blocks. A Cluster is single-use: create a new one for another
// run.
func (c *Cluster) Run() RiderResult {
	return harness.RunNodes(harness.RiderConfig{
		Kind: harness.Asymmetric, Trust: c.cfg.Trust, NumWaves: c.cfg.NumWaves,
		Seed: c.cfg.Seed, CoinSeed: c.cfg.CoinSeed, Latency: c.cfg.Latency,
	}, c.nodes)
}

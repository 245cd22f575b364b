package asymdag

import (
	"repro/internal/coin"
	"repro/internal/core"
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
	// MaxSteps bounds Run to that many delivered events (0 = the
	// simulator's generous default budget, < 0 = unbounded). Without a
	// bound, a non-quiescing schedule — an adversarial latency model
	// feeding a livelocked round, say — hangs Run (and any sweep driving
	// it) forever; the default cap is far above what a legitimate run
	// delivers, so hitting it signals a runaway schedule rather than
	// truncating real work. ClusterResult reports a hit via HitLimit.
	MaxSteps int
	// DeliveryWorkers opts the run into the simulator's parallel
	// same-time delivery (0 = serial; see sim.Config.DeliveryWorkers).
	DeliveryWorkers int
}

// Cluster is a simulated deployment of the asymmetric DAG consensus: one
// node per process, an in-memory asynchronous network, and per-node
// transaction queues. Create with NewCluster, feed with Submit, execute
// with Run.
type Cluster struct {
	cfg    ClusterConfig
	queues []*rider.QueueWorkload
	nodes  []*core.Node
}

// NewCluster creates a cluster over cfg.Trust.N() processes.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.NumWaves <= 0 {
		cfg.NumWaves = 10
	}
	if cfg.Latency == nil {
		// The documented default. Leaving it nil used to fall through to
		// sim.NewRunner's ConstantLatency(1), a lockstep network that hides
		// the asynchrony the protocol is supposed to tolerate.
		cfg.Latency = sim.UniformLatency{Min: 1, Max: 20}
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

// Run executes the cluster to network quiescence and returns the outcome.
// A Cluster is single-use: create a new one for another run.
func (c *Cluster) Run() ClusterResult {
	n := c.cfg.Trust.N()
	nodes := make([]sim.Node, n)
	for i, nd := range c.nodes {
		nodes[i] = nd
	}
	limit := sim.ResolveEventBudget(c.cfg.MaxSteps)
	r := sim.NewRunner(sim.Config{
		N: n, Seed: c.cfg.Seed, Latency: c.cfg.Latency,
		DeliveryWorkers: c.cfg.DeliveryWorkers,
	}, nodes)
	r.Run(limit)

	res := ClusterResult{
		orders:   make([][]string, n),
		commits:  make([]int, n),
		rounds:   make([]int, n),
		Messages: r.Metrics().MessagesSent,
		Bytes:    r.Metrics().BytesSent,
		VTime:    int64(r.Now()),
		HitLimit: limit > 0 && r.Pending() > 0,
	}
	for i, nd := range c.nodes {
		res.orders[i] = nd.DeliveredBlocks()
		res.commits[i] = len(nd.Commits())
		res.rounds[i] = nd.Round()
	}
	return res
}

// ClusterResult is the observable outcome of a cluster run.
type ClusterResult struct {
	// Messages and Bytes are total network costs; VTime is the virtual
	// time at quiescence.
	Messages, Bytes int
	VTime           int64
	// HitLimit reports that the run stopped at the MaxSteps event budget
	// with deliveries still pending, instead of reaching quiescence.
	HitLimit bool

	orders  [][]string
	commits []int
	rounds  []int
}

// Order returns the totally ordered transaction log delivered at process p.
func (r ClusterResult) Order(p ProcessID) []string {
	out := make([]string, len(r.orders[p]))
	copy(out, r.orders[p])
	return out
}

// Commits returns how many waves process p committed.
func (r ClusterResult) Commits(p ProcessID) int { return r.commits[p] }

// Round returns the final round of process p.
func (r ClusterResult) Round(p ProcessID) int { return r.rounds[p] }

// OrdersAgree reports whether every process's log is a prefix of the
// longest log — the observable form of the total-order property.
func (r ClusterResult) OrdersAgree() bool {
	longest := 0
	for i := range r.orders {
		if len(r.orders[i]) > len(r.orders[longest]) {
			longest = i
		}
	}
	for i := range r.orders {
		for k, tx := range r.orders[i] {
			if r.orders[longest][k] != tx {
				return false
			}
		}
	}
	return true
}

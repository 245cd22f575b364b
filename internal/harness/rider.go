// Package harness runs whole-cluster executions of the consensus protocols
// and regenerates every figure and quantitative claim of the paper (the
// experiment index is All in experiments.go). It is the engine behind
// cmd/experiments, the benchmarks, and the protocol-level tests.
package harness

import (
	"fmt"
	"sort"

	"repro/internal/baseline"
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

// RiderKind selects a consensus protocol.
type RiderKind int

const (
	// Symmetric is the DAG-Rider baseline (requires threshold trust).
	Symmetric RiderKind = iota
	// Asymmetric is the paper's protocol (Algorithms 4–6).
	Asymmetric
)

// String implements fmt.Stringer.
func (k RiderKind) String() string {
	if k == Symmetric {
		return "symmetric"
	}
	return "asymmetric"
}

// RiderConfig configures one consensus execution.
type RiderConfig struct {
	Kind RiderKind
	// Trust is the quorum assumption. Symmetric runs require a
	// quorum.Threshold.
	Trust quorum.Assumption
	// NumWaves bounds the execution: nodes stop creating vertices after
	// round 4*NumWaves.
	NumWaves int
	// TxPerBlock is the synthetic workload's block size (0 = empty
	// blocks).
	TxPerBlock int
	// Seed drives the network schedule; CoinSeed the leader election.
	Seed, CoinSeed int64
	// Latency is the network model (default uniform 1..20).
	Latency sim.LatencyModel
	// Scenario is the run's adversary (nil = every process correct, no
	// link faults): its node faults wrap the protocol nodes (a mute or
	// Byzantine process is a NodeFault), its rules become the simulator's
	// fault plane, and CheckScenarioProperties reads its faulty set and
	// declared properties. Wrappers hold per-run state, so build a fresh
	// Scenario for every run. Result collection unwraps through
	// sim.Unwrap, so a wrapped protocol node's state is still reported.
	Scenario *scenario.Scenario
	// MaxEvents bounds the simulation (0 = sim.DefaultEventBudget, < 0 =
	// unbounded). The default keeps a non-quiescing schedule from hanging
	// a sweep forever; RiderResult.HitLimit reports a truncated run.
	MaxEvents int
	// RevealedCoin enables the share-gated coin in the asymmetric
	// protocol (ignored by the symmetric baseline).
	RevealedCoin bool
	// GCDepth enables DAG garbage collection in the asymmetric protocol
	// (0 = unbounded, the paper's protocol).
	GCDepth int
}

// NodeResult is the observable outcome at one correct process.
type NodeResult struct {
	Deliveries  []rider.Delivery
	Commits     []rider.CommitEvent
	Round       int
	DecidedWave int
	Blocks      []string
}

// RiderResult is the outcome of one cluster execution.
type RiderResult struct {
	// Nodes holds per-process results for processes that ran the real
	// protocol (stand-ins that replace it, like a mute, are omitted).
	Nodes   map[types.ProcessID]NodeResult
	Metrics *sim.Metrics
	EndTime sim.VirtualTime
	Config  RiderConfig
	// HitLimit reports that the run stopped at the MaxEvents budget with
	// deliveries still pending, instead of reaching quiescence.
	HitLimit bool

	// maxVertexCount is the largest retained DAG size across nodes (for
	// the GC experiment).
	maxVertexCount int
}

// RunRider executes one consensus cluster to quiescence and collects the
// per-node results.
func RunRider(cfg RiderConfig) RiderResult {
	n := cfg.Trust.N()
	c := coin.NewPRF(cfg.CoinSeed, n)
	maxRound := 4 * cfg.NumWaves

	nodes := make([]sim.Node, n)
	for i := range nodes {
		var w rider.Workload
		if cfg.TxPerBlock > 0 {
			w = rider.SyntheticWorkload{Self: types.ProcessID(i), TxPerBlock: cfg.TxPerBlock}
		}
		if cfg.Kind == Symmetric {
			th, ok := cfg.Trust.(quorum.Threshold)
			if !ok {
				panic("harness: symmetric rider requires quorum.Threshold trust")
			}
			nodes[i] = baseline.NewNode(baseline.Config{
				N: n, F: th.F(), Coin: c, Workload: w, MaxRound: maxRound,
			})
		} else {
			nodes[i] = core.NewNode(core.Config{
				Trust: cfg.Trust, Coin: c, Workload: w, MaxRound: maxRound,
				RevealedCoin: cfg.RevealedCoin, GCDepth: cfg.GCDepth,
			})
		}
	}
	return RunNodes(cfg, nodes)
}

// RunNodes executes already-constructed nodes under cfg's network and
// adversary (Seed, Latency, Scenario, MaxEvents) to quiescence and
// collects the result of every node that unwraps to a protocol node. It wraps nodes in place with the Scenario's node faults
// and ignores cfg's node-construction fields; RunRider is the caller that
// reads them.
func RunNodes(cfg RiderConfig, nodes []sim.Node) RiderResult {
	if cfg.Latency == nil {
		cfg.Latency = sim.UniformLatency{Min: 1, Max: 20}
	}
	for i := range nodes {
		nodes[i] = cfg.Scenario.WrapNode(types.ProcessID(i), nodes[i])
	}
	limit := sim.ResolveEventBudget(cfg.MaxEvents)
	r := sim.NewRunner(sim.Config{
		N: len(nodes), Seed: cfg.Seed, Latency: cfg.Latency, Fault: cfg.Scenario.FaultPlane(),
	}, nodes)
	r.Run(limit)

	res := RiderResult{
		Nodes:    map[types.ProcessID]NodeResult{},
		Metrics:  r.Metrics(),
		EndTime:  r.Now(),
		Config:   cfg,
		HitLimit: limit > 0 && r.Pending() > 0,
	}
	for i, nd := range nodes {
		v, ok := sim.Unwrap(nd).(riderNode)
		if !ok {
			continue
		}
		res.Nodes[types.ProcessID(i)] = NodeResult{
			Deliveries:  v.Deliveries(),
			Commits:     v.Commits(),
			Round:       v.Round(),
			DecidedWave: v.DecidedWave(),
			Blocks:      v.DeliveredBlocks(),
		}
		if c := v.DAG().VertexCount(); c > res.maxVertexCount {
			res.maxVertexCount = c
		}
	}
	return res
}

// riderNode is the accessor set both node kinds promote from rider.Base.
type riderNode interface {
	Deliveries() []rider.Delivery
	Commits() []rider.CommitEvent
	Round() int
	DecidedWave() int
	DeliveredBlocks() []string
	DAG() *dag.DAG
}

// Property checks (Definition 4.1). --------------------------------------

// CheckTotalOrder verifies that the delivery sequences of the given
// processes are prefix-compatible: for any two, one's delivered vertex
// sequence is a prefix of the other's. It returns an error naming the
// first divergence.
func (r RiderResult) CheckTotalOrder(within types.Set) error {
	var longest []rider.Delivery
	var owner types.ProcessID
	for _, p := range within.Members() {
		nr, ok := r.Nodes[p]
		if !ok {
			continue
		}
		if len(nr.Deliveries) > len(longest) {
			longest = nr.Deliveries
			owner = p
		}
	}
	for _, p := range within.Members() {
		nr, ok := r.Nodes[p]
		if !ok {
			continue
		}
		for i, d := range nr.Deliveries {
			if longest[i].Ref != d.Ref {
				return fmt.Errorf("total order violated: %v delivers %v at %d, %v delivers %v",
					p, d.Ref, i, owner, longest[i].Ref)
			}
		}
	}
	return nil
}

// CheckIntegrity verifies that no process delivered a vertex twice.
func (r RiderResult) CheckIntegrity(within types.Set) error {
	for _, p := range within.Members() {
		nr, ok := r.Nodes[p]
		if !ok {
			continue
		}
		seen := map[dag.VertexRef]bool{}
		for _, d := range nr.Deliveries {
			if seen[d.Ref] {
				return fmt.Errorf("integrity violated: %v delivered %v twice", p, d.Ref)
			}
			seen[d.Ref] = true
		}
	}
	return nil
}

// CheckAgreement verifies that every vertex delivered by any process in
// `within` up to the minimum decided wave is delivered by all of them.
// (Agreement is eventual; bounded runs can only check the common decided
// prefix.)
func (r RiderResult) CheckAgreement(within types.Set) error {
	minWave := -1
	for _, p := range within.Members() {
		nr, ok := r.Nodes[p]
		if !ok {
			continue
		}
		if minWave == -1 || nr.DecidedWave < minWave {
			minWave = nr.DecidedWave
		}
	}
	if minWave <= 0 {
		return nil // nothing commonly decided yet
	}
	// Collect each process's delivered set up to minWave.
	sets := map[types.ProcessID]map[dag.VertexRef]bool{}
	for _, p := range within.Members() {
		nr, ok := r.Nodes[p]
		if !ok {
			continue
		}
		s := map[dag.VertexRef]bool{}
		for _, d := range nr.Deliveries {
			if d.Wave <= minWave {
				s[d.Ref] = true
			}
		}
		sets[p] = s
	}
	var first types.ProcessID = -1
	for _, p := range within.Members() {
		if _, ok := sets[p]; ok {
			first = p
			break
		}
	}
	if first < 0 {
		return nil
	}
	// Walk processes in PID order and refs in sorted order so a violation
	// is always attributed to the same process and vertex on every run.
	refs := make([]dag.VertexRef, 0, len(sets[first]))
	for ref := range sets[first] {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Round != refs[j].Round {
			return refs[i].Round < refs[j].Round
		}
		return refs[i].Source < refs[j].Source
	})
	for _, p := range within.Members() {
		s, ok := sets[p]
		if !ok {
			continue
		}
		if len(s) != len(sets[first]) {
			return fmt.Errorf("agreement violated: %v delivered %d vertices ≤ wave %d, %v delivered %d",
				p, len(s), minWave, first, len(sets[first]))
		}
		for _, ref := range refs {
			if !s[ref] {
				return fmt.Errorf("agreement violated: %v missing %v (wave ≤ %d)", p, ref, minWave)
			}
		}
	}
	return nil
}

// CheckValidity verifies that a vertex proposed by `proposer` at or before
// earlyRound was delivered by every process in `within` that decided at
// least two waves beyond that round (weak edges guarantee inclusion within
// a couple of waves; validity itself is an eventual property).
func (r RiderResult) CheckValidity(within types.Set, proposer types.ProcessID, earlyRound int) error {
	for _, p := range within.Members() {
		nr, ok := r.Nodes[p]
		if !ok {
			continue
		}
		// Only meaningful if p decided well past earlyRound.
		if rider.WaveRound(nr.DecidedWave, 1) <= earlyRound+8 {
			continue
		}
		found := false
		for _, d := range nr.Deliveries {
			if d.Ref.Source == proposer && d.Ref.Round <= earlyRound {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("validity violated: %v (decided wave %d) never delivered an early vertex of %v",
				p, nr.DecidedWave, proposer)
		}
	}
	return nil
}

// CheckCommittedLeaderChain verifies the Lemma 4.2 invariant at one
// process: every later committed leader has a strong path to every earlier
// committed leader. The check runs against the process's own commits, whose
// leader stack construction makes the property equivalent to consecutive
// reachability.
func CheckCommittedLeaderChain(d *dag.DAG, commits []rider.CommitEvent) error {
	for i := 1; i < len(commits); i++ {
		if !d.StrongPath(commits[i].Leader, commits[i-1].Leader) {
			return fmt.Errorf("Lemma 4.2 violated: leader %v (wave %d) has no strong path to %v (wave %d)",
				commits[i].Leader, commits[i].Wave, commits[i-1].Leader, commits[i-1].Wave)
		}
	}
	return nil
}

// WavesPerCommit returns totalWaves / commits at the given process — the
// empirical quantity bounded by |P|/c(Q) in Lemma 4.4. It returns ok=false
// if the process never committed.
func (r RiderResult) WavesPerCommit(p types.ProcessID) (float64, bool) {
	nr, ok := r.Nodes[p]
	if !ok || len(nr.Commits) == 0 {
		return 0, false
	}
	return float64(r.Config.NumWaves) / float64(len(nr.Commits)), true
}

// Throughput returns delivered transactions per unit of virtual time at
// process p.
func (r RiderResult) Throughput(p types.ProcessID) float64 {
	nr, ok := r.Nodes[p]
	if !ok || r.EndTime == 0 {
		return 0
	}
	return float64(len(nr.Blocks)) / float64(r.EndTime)
}

// Package baseline implements the original symmetric DAG-Rider protocol
// (Keidar et al., "All You Need is DAG") as the comparison baseline for the
// paper's asymmetric protocol:
//
//   - rounds advance after delivering vertices from n−f processes,
//   - a vertex is valid if it carries at least n−f strong edges,
//   - a wave is 4 rounds; its coin-elected round-1 leader commits when at
//     least 2f+1 round-4 vertices have strong paths to it,
//   - committed leaders chain backwards through strong paths and their
//     causal histories are delivered in a deterministic order.
//
// Both protocols run the one skeleton in internal/rider: rider.Base's
// round advance and validity rule read "one of my quorums", which under a
// threshold assumption is DAG-Rider's n−f. What this package adds is the
// 2f+1 commit rule; what internal/core adds instead is the paper's change,
// the quorum commit rule and the ACK/READY/CONFIRM gather gating. The
// experiments therefore compare protocol rules, not implementation styles.
package baseline

import (
	"repro/internal/coin"
	"repro/internal/dag"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/sim"
	"repro/internal/types"
)

// Config configures one DAG-Rider node.
type Config struct {
	// N and F are the threshold parameters (n > 3f).
	N, F int
	// Coin elects wave leaders; shared by all nodes of a run.
	Coin coin.Source
	// Workload supplies blocks; nil means empty blocks.
	Workload rider.Workload
	// MaxRound stops vertex creation beyond this round; 0 means unbounded.
	MaxRound int
}

// Node is one process running symmetric DAG-Rider: rider.Base under
// threshold trust with the 2f+1 commit rule.
type Node struct {
	rider.Base
	cfg   Config
	trust quorum.Threshold
}

var _ sim.Node = (*Node)(nil)

// NewNode creates a DAG-Rider node; the protocol starts at Init. It panics
// unless n > 3f.
func NewNode(cfg Config) *Node {
	return &Node{cfg: cfg, trust: quorum.NewThreshold(cfg.N, cfg.F)}
}

// Init implements sim.Node.
func (n *Node) Init(env sim.Env) {
	n.Start(env, rider.Setup{Trust: n.trust, Workload: n.cfg.Workload, MaxRound: n.cfg.MaxRound}, rules{n})
}

// rules are DAG-Rider's own rules, as rider.Base calls them.
type rules struct{ *Node }

// Leader returns the coin-elected leader of wave w.
func (n rules) Leader(w int) (types.ProcessID, bool) { return n.cfg.Coin.Leader(w), true }

// Commits is DAG-Rider's commit rule: 2f+1 round-4 vertices with strong
// paths to the leader.
func (n rules) Commits(reach types.Set) bool { return reach.Count() >= 2*n.cfg.F+1 }

// WaveDone attempts the commit.
func (n rules) WaveDone(env sim.Env, w int) { n.Commit(env, w) }

// DAG-Rider acknowledges nothing, gates no round and proposes whenever a
// round completes.
func (rules) Inserted(sim.Env, *dag.Vertex) {}
func (rules) Advance(int) bool              { return true }
func (rules) Propose(int) bool              { return true }

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
// The structure intentionally parallels internal/core so that the
// experiments compare protocol rules, not implementation styles. The
// difference is exactly what the paper changes: quorum predicates and the
// ACK/READY/CONFIRM gather gating.
package baseline

import (
	"repro/internal/broadcast"
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

// Node is one process running symmetric DAG-Rider.
type Node struct {
	cfg   Config
	trust quorum.Threshold
	self  types.ProcessID

	arb *broadcast.Reliable
	dag *dag.DAG

	r      int
	buffer []*dag.Vertex

	decidedWave int
	// The baseline is the deliberately naive reference implementation the
	// optimized core is differential-tested against; it retains all
	// history so runs can be compared delivery-by-delivery, and it is
	// never run long-lived.
	//lint:retained reference implementation, retains full history for differential tests
	delivered map[dag.VertexRef]bool

	//lint:retained reference implementation, retains full history for differential tests
	deliveries []rider.Delivery
	//lint:retained reference implementation, retains full history for differential tests
	commits []rider.CommitEvent
}

var _ sim.Node = (*Node)(nil)

// NewNode creates a DAG-Rider node; the protocol starts at Init.
func NewNode(cfg Config) *Node {
	return &Node{
		cfg:       cfg,
		trust:     quorum.NewThreshold(cfg.N, cfg.F),
		delivered: map[dag.VertexRef]bool{},
	}
}

// Init implements sim.Node.
func (n *Node) Init(env sim.Env) {
	n.self = env.Self()
	n.dag = dag.New(cfgN(env, n.cfg))
	for _, g := range rider.Genesis(env.N()) {
		if err := n.dag.Add(g); err != nil {
			panic("baseline: genesis insertion failed: " + err.Error())
		}
	}
	n.arb = broadcast.NewReliable(n.self, n.trust, n.onVertex)
	n.step(env)
}

func cfgN(env sim.Env, cfg Config) int {
	if cfg.N != env.N() {
		panic("baseline: config N does not match simulation size")
	}
	return cfg.N
}

// Receive implements sim.Node.
func (n *Node) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if n.arb.Handle(env, from, msg) {
		n.step(env)
	}
}

// onVertex validates and buffers an arb-delivered vertex.
func (n *Node) onVertex(_ sim.Env, slot broadcast.Slot, p broadcast.Payload) {
	vp, ok := p.(rider.VertexPayload)
	if !ok {
		return
	}
	v := vp.V
	strong, ok := rider.CheckVertex(v, slot, n.cfg.N)
	if !ok || strong.Count() < n.cfg.N-n.cfg.F {
		return // DAG-Rider validity: at least n−f strong edges
	}
	n.buffer = append(n.buffer, v)
}

func (n *Node) processBuffer() bool {
	added := false
	for {
		progress := false
		keep := n.buffer[:0]
		for _, v := range n.buffer {
			if v.Round <= n.r && n.dag.HasAllParents(v) {
				if err := n.dag.Add(v); err == nil {
					progress = true
					added = true
					continue
				}
			}
			keep = append(keep, v)
		}
		n.buffer = keep
		if !progress {
			return added
		}
	}
}

// step runs the DAG-Rider main loop to a fixpoint.
func (n *Node) step(env sim.Env) {
	for {
		n.processBuffer()
		if n.dag.RoundSources(n.r).Count() < n.cfg.N-n.cfg.F {
			return
		}
		if n.r%4 == 0 && n.r > 0 {
			n.waveReady(env, n.r/4)
		}
		if n.cfg.MaxRound > 0 && n.r >= n.cfg.MaxRound {
			return
		}
		n.r++
		v := n.createVertex(n.r)
		n.arb.Broadcast(env, uint64(n.r), rider.NewVertexPayload(v))
	}
}

func (n *Node) createVertex(round int) *dag.Vertex {
	v := &dag.Vertex{Source: n.self, Round: round}
	if n.cfg.Workload != nil {
		v.Block = n.cfg.Workload.NextBlock(round)
	}
	prev := n.dag.RoundVertices(round - 1)
	v.StrongEdges = make([]dag.VertexRef, len(prev))
	for i, u := range prev {
		v.StrongEdges[i] = u.Ref()
	}
	rider.SetWeakEdges(n.dag, v, round)
	return v
}

// waveReady attempts to commit wave w: DAG-Rider's commit rule requires
// 2f+1 round-4 vertices with strong paths to the leader.
func (n *Node) waveReady(env sim.Env, w int) {
	if w <= n.decidedWave {
		return
	}
	leader, ok := n.waveLeader(w)
	if !ok {
		return
	}
	if n.dag.StrongReachSources(rider.WaveRound(w, 4), leader).Count() < 2*n.cfg.F+1 {
		return
	}
	stack := []dag.VertexRef{leader}
	v := leader
	for wp := w - 1; wp > n.decidedWave; wp-- {
		u, ok := n.waveLeader(wp)
		if ok && n.dag.StrongPath(v, u) {
			stack = append(stack, u)
			v = u
		}
	}
	n.decidedWave = w
	n.commits = append(n.commits, rider.CommitEvent{Wave: w, Leader: leader, Time: env.Now(), Round: n.r})
	n.deliveries = append(n.deliveries, rider.OrderVertices(n.dag, stack, n.delivered, w, env.Now())...)
}

func (n *Node) waveLeader(w int) (dag.VertexRef, bool) {
	p := n.cfg.Coin.Leader(w)
	ref := dag.VertexRef{Source: p, Round: rider.WaveRound(w, 1)}
	if !n.dag.Contains(ref) {
		return dag.VertexRef{}, false
	}
	return ref, true
}

// Accessors mirroring internal/core's, for shared experiment code. -------

// Round returns the node's current round.
func (n *Node) Round() int { return n.r }

// DecidedWave returns the last committed wave.
func (n *Node) DecidedWave() int { return n.decidedWave }

// Deliveries returns the atomically delivered vertices in delivery order.
func (n *Node) Deliveries() []rider.Delivery { return n.deliveries }

// Commits returns the node's successful wave commits in order.
func (n *Node) Commits() []rider.CommitEvent { return n.commits }

// DeliveredBlocks flattens the delivered transactions in delivery order.
func (n *Node) DeliveredBlocks() []string {
	var out []string
	for _, d := range n.deliveries {
		out = append(out, d.Txs...)
	}
	return out
}

// DAG exposes the local DAG for invariant checks in tests.
func (n *Node) DAG() *dag.DAG { return n.dag }

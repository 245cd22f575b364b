package gather

import (
	"repro/internal/sim"
	"repro/internal/types"
)

// Control messages of Algorithm 3.

type ackMsg struct{}

type readyMsg struct{}

type confirmMsg struct{}

// ConstantRoundNode runs the paper's Algorithm 3, the first constant-round
// asymmetric gather, over the levels T (0) and U (1):
//
//	line 42–45: arb-broadcast the input; S accumulates arb-deliveries.
//	line 46–47: once S contains a quorum, send [DISTRIBUTE_S, S] to all.
//	line 48–50: on [DISTRIBUTE_S, S_j] with S_j ⊆ S and ¬sentT:
//	            T ∪= S_j and ACK the sender.
//	line 51–59: the ACK/READY/CONFIRM control flow, run by a Gate — its
//	            single implementation, which every consensus wave of
//	            internal/core runs too. When the gate opens, send
//	            [DISTRIBUTE_T, T] and stop acknowledging.
//	line 60–63: on [DISTRIBUTE_T, T_j] with T_j ⊆ S: U ∪= T_j; once the
//	            accepted T sets cover a quorum, ag-deliver(U).
//
// Only level 0 has rules of its own; every later level is the merge step
// mergeNode runs. The ACK/READY/CONFIRM flow guarantees that before anyone
// distributes its T set, some maximal-guild process has placed its S set
// in the T set of a full quorum — which quorum consistency then spreads
// into everyone's U set (Lemmas 3.3–3.7).
//
// The binding gather is the same node with one level more, following
// Abraham et al.'s observation (paper §2.4) that a binding common core
// costs one additional round: where Algorithm 3 would deliver U, it sends
// [DISTRIBUTE_U, U] and delivers the union of the U sets accepted from a
// quorum. Shoup's attack on Tusk exploits a non-binding core: an adversary
// that sees the coin before the core is fixed can steer it away from the
// leader. With the extra round, by the time the first correct process
// delivers, the one-round-older common core can no longer change: every
// later deliverer's output already contains it.
//
// A received set whose pairs have not all been arb-delivered waits in its
// level's pendingPairs buffer (at most one per sender), re-checked on each
// arb-delivery of a process it names.
type ConstantRoundNode struct {
	collector
	levels

	// gate runs lines 51–59; once it is open, T was distributed (the
	// pseudocode's sentT).
	gate    *Gate
	pending []pendingPairs // pending[k]: level-k sets S does not contain yet
}

// newConstantRoundNode creates an Algorithm 3 node of rounds rounds (3, or
// 4 for the binding gather); the protocol starts at Init.
func newConstantRoundNode(cfg Config, rounds int) *ConstantRoundNode {
	return &ConstantRoundNode{collector: newCollector(cfg), levels: newLevels(rounds),
		pending: make([]pendingPairs, rounds-1)}
}

// Init implements sim.Node: ag-propose(input).
func (n *ConstantRoundNode) Init(env sim.Env) {
	n.gate = NewGate(n.cfg.Trust, env.Self())
	n.levels.init(n.cfg.Trust, env.Self())
	n.start(env, n.onInput)
}

// onInput runs after each arb-delivery enters S: it wakes the buffered
// sets this delivery completes.
func (n *ConstantRoundNode) onInput(env sim.Env, src types.ProcessID) {
	for k := range n.pending {
		for _, e := range n.pending[k].deliver(n.s, src) {
			n.accept(env, k, e.from, e.pairs)
		}
	}
}

// accept takes a level-k set that S contains: at level 0 it merges into T
// and ACKs the sender (lines 48–50), at every later level it is merged.
func (n *ConstantRoundNode) accept(env sim.Env, k int, from types.ProcessID, set Pairs) {
	if k > levelS {
		n.merge(env, k, from, set)
		return
	}
	n.sets[levelS].Merge(set)
	env.Send(from, ackMsg{})
}

// Receive implements sim.Node.
func (n *ConstantRoundNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if n.bc.Handle(env, from, msg) {
		return
	}
	switch m := msg.(type) {
	case distMsg:
		// line 48: no ACK once T was distributed
		if !n.holds(m, env.N()) || m.Level == levelS && n.gate.Open() {
			return
		}
		if n.pending[m.Level].add(n.s, from, m.Set) {
			n.accept(env, m.Level, from, m.Set)
		}
	case ackMsg:
		if n.gate.Ack(from) {
			sim.Multicast(env, sim.Cast{Msg: readyMsg{}})
		}
	case readyMsg:
		if n.gate.Ready(from) {
			sim.Multicast(env, sim.Cast{Msg: confirmMsg{}})
		}
	case confirmMsg:
		confirm, opened := n.gate.Confirm(from)
		if confirm {
			sim.Multicast(env, sim.Cast{Msg: confirmMsg{}})
		}
		if opened {
			n.pending[levelS].clear() // stop acknowledging
			sim.Multicast(env, sim.Cast{Msg: distMsg{Level: levelT, Set: n.sets[levelS].Clone()}})
		}
	}
}

package gather

import (
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// Control messages of Algorithm 3.

type ackMsg struct{}

type readyMsg struct{}

type confirmMsg struct{}

// ConstantRoundNode runs the paper's Algorithm 3, the first constant-round
// asymmetric gather:
//
//	line 42–45: arb-broadcast the input; S accumulates arb-deliveries.
//	line 46–47: once S contains a quorum, send [DISTRIBUTE_S, S] to all.
//	line 48–50: on [DISTRIBUTE_S, S_j] with S_j ⊆ S and ¬sentT:
//	            T ∪= S_j and ACK the sender. (Arrivals whose components
//	            have not all been arb-delivered yet are buffered.)
//	line 51–59: the ACK/READY/CONFIRM control flow, run by a Gate — its
//	            single implementation, which every consensus wave of
//	            internal/core runs too. When the gate opens, send
//	            [DISTRIBUTE_T, T] and stop acknowledging.
//	line 60–61: on [DISTRIBUTE_T, T_j] with T_j ⊆ S: U ∪= T_j.
//	line 62–63: once accepted DISTRIBUTE_T messages cover a quorum,
//	            ag-deliver(U).
//
// The ACK/READY/CONFIRM flow guarantees that before anyone distributes its
// T set, some maximal-guild process has placed its S set in the T set of a
// full quorum — which quorum consistency then spreads into everyone's U
// set (Lemmas 3.3–3.7).
//
// All quorum tallies are incremental quorum.Tracker values. Buffered
// DISTRIBUTE sets (pendingPairs, at most one per sender) are re-checked on
// each arb-delivery of a process they name.
type ConstantRoundNode struct {
	collector
	outcome

	t Pairs
	u Pairs

	// gate runs lines 51–59; once it is open, T was distributed (the
	// pseudocode's sentT).
	gate  *Gate
	tFrom *quorum.Tracker

	pendingS pendingPairs
	pendingT pendingPairs

	// inputHook, when set, observes every accepted arb-delivery (used by
	// BindingNode to unblock its own buffered U sets).
	inputHook func(env sim.Env, src types.ProcessID)
}

var _ sim.Node = (*ConstantRoundNode)(nil)

// NewConstantRoundNode creates an Algorithm 3 node; the protocol starts at
// Init.
func NewConstantRoundNode(cfg Config) *ConstantRoundNode {
	n := cfg.Trust.N()
	return &ConstantRoundNode{
		collector: newCollector(cfg),
		t:         NewPairs(n),
		u:         NewPairs(n),
	}
}

// Init implements sim.Node: ag-propose(input).
func (n *ConstantRoundNode) Init(env sim.Env) {
	n.gate = NewGate(n.cfg.Trust, env.Self())
	n.tFrom = quorum.NewTracker(n.cfg.Trust, env.Self())
	n.start(env, n.onInput)
}

// onInput runs after each arb-delivery enters S.
func (n *ConstantRoundNode) onInput(env sim.Env, src types.ProcessID) {
	// Wake the buffered DISTRIBUTE sets this delivery completes.
	for _, e := range n.pendingS.deliver(n.s, src) {
		if !n.gate.Open() {
			n.acceptS(env, e.from, e.pairs)
		}
	}
	for _, e := range n.pendingT.deliver(n.s, src) {
		n.acceptT(env, e.from, e.pairs)
	}
	if n.inputHook != nil {
		n.inputHook(env, src)
	}
}

func (n *ConstantRoundNode) acceptS(env sim.Env, from types.ProcessID, s Pairs) {
	n.t.Merge(s)
	env.Send(from, ackMsg{})
}

func (n *ConstantRoundNode) acceptT(env sim.Env, from types.ProcessID, t Pairs) {
	n.u.Merge(t)
	n.tFrom.Add(from)
	n.deliverOnce(n.tFrom, n.u)
}

// Receive implements sim.Node.
func (n *ConstantRoundNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if n.bc.Handle(env, from, msg) {
		return
	}
	switch m := msg.(type) {
	case distMsg:
		if !m.Set.wireValid(env.N()) {
			return
		}
		switch {
		case m.Level == levelS && !n.gate.Open(): // line 48: no ACK once T was distributed
			if n.pendingS.add(n.s, from, m.Set) {
				n.acceptS(env, from, m.Set)
			}
		case m.Level == levelT:
			if n.pendingT.add(n.s, from, m.Set) {
				n.acceptT(env, from, m.Set)
			}
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
			n.pendingS.clear() // stop acknowledging
			sim.Multicast(env, sim.Cast{Msg: distMsg{Level: levelT, Set: n.t.Clone()}})
		}
	}
}

package gather

import (
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// TwoRoundNode is the Tusk-style two-round common-core primitive (paper
// §3.2: "Tusk uses a simpler 2 round common core primitive"), generalized
// with quorum triggers the same way Algorithm 2 generalizes Algorithm 1:
//
//	round 1: broadcast the input; S accumulates deliveries; once S
//	         contains a quorum, send [DISTRIBUTE_S, S] to all.
//	round 2: U accumulates received S sets; once DISTRIBUTE_S messages
//	         have arrived from a quorum, deliver U.
//
// With threshold trust, a common core of n−2f elements exists (Tusk's
// guarantee). With asymmetric quorums the paper notes the Figure 1
// counterexample defeats this primitive as well — reproduced by
// TestTuskTwoRoundCounterexample.
type TwoRoundNode struct {
	collector
	outcome

	u     Pairs
	sFrom *quorum.Tracker
}

var _ sim.Node = (*TwoRoundNode)(nil)

// NewTwoRoundNode creates a two-round gather node.
func NewTwoRoundNode(cfg Config) *TwoRoundNode {
	return &TwoRoundNode{collector: newCollector(cfg), u: NewPairs(cfg.Trust.N())}
}

// Init implements sim.Node.
func (n *TwoRoundNode) Init(env sim.Env) {
	n.sFrom = quorum.NewTracker(n.cfg.Trust, env.Self())
	n.start(env, nil)
}

// Receive implements sim.Node.
func (n *TwoRoundNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if n.bc.Handle(env, from, msg) {
		return
	}
	m, ok := msg.(distSMsg)
	if !ok || m.From != from || !m.S.wireValid(env.N()) {
		return
	}
	n.u.Merge(m.S)
	n.sFrom.Add(from)
	n.deliverOnce(n.sFrom, n.u)
}

// TuskCommonCoreElements computes, for the two-round primitive, the set of
// individual inputs (not whole S sets) present in every delivered output —
// Tusk's common core is a set of elements rather than one process's S set.
func TuskCommonCoreElements(n int, outputs map[types.ProcessID]Pairs, within types.Set) types.Set {
	core := types.FullSet(n)
	for _, p := range within.Members() {
		out, ok := outputs[p]
		if !ok {
			continue
		}
		core = core.Intersect(out.Senders(n))
	}
	return core
}

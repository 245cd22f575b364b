package gather

import (
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// BindingNode is the binding variant of the asymmetric gather: Algorithm 3
// plus one extra exchange round, following Abraham et al.'s observation
// (paper §2.4) that a binding common core costs one additional round.
// Shoup's attack on Tusk exploits a non-binding core: an adversary that
// sees the coin before the core is fixed can steer it away from the
// leader. With the extra round, by the time the first correct process
// ag-delivers, the (now one-round-older) common core can no longer change:
// every later deliverer's output already contains it.
//
// Structure: run Algorithm 3 unchanged through DISTRIBUTE_T; where
// Algorithm 3 would deliver U, broadcast [DISTRIBUTE_U, U] instead and
// deliver the union of U sets accepted from one of the local quorums.
type BindingNode struct {
	inner *ConstantRoundNode

	outcome
	v        Pairs // union of accepted U sets
	uFrom    *quorum.Tracker
	pendingU pendingPairs
	sentU    bool
}

var _ sim.Node = (*BindingNode)(nil)

// NewBindingNode creates a binding gather node.
func NewBindingNode(cfg Config) *BindingNode {
	n := &BindingNode{
		inner: NewConstantRoundNode(cfg),
		v:     NewPairs(cfg.Trust.N()),
	}
	// Buffered U sets become acceptable only when the inner S set grows;
	// hook the arb-delivery so the entries that name it re-check.
	n.inner.inputHook = func(env sim.Env, src types.ProcessID) {
		for _, e := range n.pendingU.deliver(n.inner.s, src) {
			n.acceptU(e.from, e.pairs)
		}
		n.afterInner(env)
	}
	return n
}

// Init implements sim.Node.
func (n *BindingNode) Init(env sim.Env) {
	n.uFrom = quorum.NewTracker(n.inner.cfg.Trust, env.Self())
	n.inner.Init(env)
	n.afterInner(env)
}

// Receive implements sim.Node.
func (n *BindingNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if m, ok := msg.(distMsg); ok && m.Level == levelU {
		if m.Set.wireValid(env.N()) && n.pendingU.add(n.inner.s, from, m.Set) {
			n.acceptU(from, m.Set)
		}
		return
	}
	n.inner.Receive(env, from, msg)
	n.afterInner(env)
}

// afterInner fires the extra round once Algorithm 3 would have delivered.
func (n *BindingNode) afterInner(env sim.Env) {
	if n.sentU {
		return
	}
	u, ok := n.inner.Delivered()
	if !ok {
		return
	}
	n.sentU = true
	sim.Multicast(env, sim.Cast{Msg: distMsg{Level: levelU, Set: u.Clone()}})
}

func (n *BindingNode) acceptU(from types.ProcessID, u Pairs) {
	n.v.Merge(u)
	n.uFrom.Add(from)
	n.deliverOnce(n.uFrom, n.v)
}

// SentS exposes the inner S snapshot for common-core analysis.
func (n *BindingNode) SentS() Pairs { return n.inner.SentS() }

// InnerDelivered exposes the inner (non-binding) U set, for comparing the
// two layers in experiments.
func (n *BindingNode) InnerDelivered() (Pairs, bool) { return n.inner.Delivered() }

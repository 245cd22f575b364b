package gather

import (
	"repro/internal/broadcast"
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
//	line 51–52: on ACKs from a quorum, send READY to all.
//	line 53–54: on READY from a quorum, send CONFIRM to all.
//	line 55–56: on CONFIRM from a kernel, send CONFIRM to all (Bracha
//	            amplification).
//	line 57–59: on CONFIRM from a quorum, send [DISTRIBUTE_T, T] and stop
//	            acknowledging.
//	line 60–61: on [DISTRIBUTE_T, T_j] with T_j ⊆ S: U ∪= T_j.
//	line 62–63: once accepted DISTRIBUTE_T messages cover a quorum,
//	            ag-deliver(U).
//
// The ACK/READY/CONFIRM flow guarantees that before anyone distributes its
// T set, some maximal-guild process has placed its S set in the T set of a
// full quorum — which quorum consistency then spreads into everyone's U
// set (Lemmas 3.3–3.7).
//
// All quorum tallies are incremental quorum.Tracker values and buffered
// DISTRIBUTE sets re-check only against the arb-delivery that may unblock
// them (pendingPairs), so each message is processed in amortized O(words)
// instead of re-scanning quorums and pending buffers.
type ConstantRoundNode struct {
	cfg  Config
	self types.ProcessID

	bc broadcast.Broadcaster

	s        Pairs
	sSenders *quorum.Tracker
	t        Pairs
	u        Pairs

	acks     *quorum.Tracker
	readies  *quorum.Tracker
	confirms *quorum.Tracker
	tFrom    *quorum.Tracker

	pendingS *pendingPairs
	pendingT *pendingPairs

	sentS       bool
	sentReady   bool
	sentConfirm bool
	sentT       bool
	delivered   bool

	sSnapshot Pairs
	output    Pairs

	// inputHook, when set, observes every accepted arb-delivery (used by
	// BindingNode to unblock its own buffered U sets).
	inputHook func(env sim.Env, src types.ProcessID, value string)
}

var _ sim.Node = (*ConstantRoundNode)(nil)

// NewConstantRoundNode creates an Algorithm 3 node; the protocol starts at
// Init.
func NewConstantRoundNode(cfg Config) *ConstantRoundNode {
	n := cfg.Trust.N()
	return &ConstantRoundNode{
		cfg:      cfg,
		s:        NewPairs(n),
		t:        NewPairs(n),
		u:        NewPairs(n),
		pendingS: newPendingPairs(),
		pendingT: newPendingPairs(),
	}
}

// Init implements sim.Node: ag-propose(input).
func (n *ConstantRoundNode) Init(env sim.Env) {
	n.self = env.Self()
	n.sSenders = quorum.NewTracker(n.cfg.Trust, n.self)
	n.acks = quorum.NewTracker(n.cfg.Trust, n.self)
	n.readies = quorum.NewTracker(n.cfg.Trust, n.self)
	n.confirms = quorum.NewTracker(n.cfg.Trust, n.self)
	n.tFrom = quorum.NewTracker(n.cfg.Trust, n.self)
	deliver := func(env sim.Env, slot broadcast.Slot, p broadcast.Payload) {
		n.onInput(env, slot.Src, string(p.(broadcast.Bytes)))
	}
	if n.cfg.Mode == UsePlain {
		n.bc = broadcast.NewPlain(n.self, deliver)
	} else {
		n.bc = broadcast.NewReliable(n.self, n.cfg.Trust, deliver)
	}
	n.bc.Broadcast(env, 0, broadcast.Bytes(n.cfg.Input))
}

func (n *ConstantRoundNode) onInput(env sim.Env, src types.ProcessID, value string) {
	if !n.s.Set(src, value) {
		return
	}
	n.sSenders.Add(src)
	if !n.sentS && n.sSenders.HasQuorum() {
		n.sentS = true
		n.sSnapshot = n.s.Snapshot()
		env.Broadcast(distSMsg{From: n.self, S: n.sSnapshot})
	}
	// Wake exactly the buffered DISTRIBUTE sets waiting on this delivery.
	for _, e := range n.pendingS.deliver(src, value) {
		if !n.sentT {
			n.acceptS(env, e.from, e.pairs)
		}
	}
	for _, e := range n.pendingT.deliver(src, value) {
		n.acceptT(env, e.from, e.pairs)
	}
	if n.inputHook != nil {
		n.inputHook(env, src, value)
	}
}

func (n *ConstantRoundNode) acceptS(env sim.Env, from types.ProcessID, s Pairs) {
	n.t.Merge(s)
	env.Send(from, ackMsg{})
}

func (n *ConstantRoundNode) acceptT(env sim.Env, from types.ProcessID, t Pairs) {
	n.u.Merge(t)
	n.tFrom.Add(from)
	if !n.delivered && n.tFrom.HasQuorum() {
		n.delivered = true
		n.output = n.u.Snapshot()
	}
}

// Receive implements sim.Node.
func (n *ConstantRoundNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if n.bc.Handle(env, from, msg) {
		return
	}
	switch m := msg.(type) {
	case distSMsg:
		if m.From != from || !m.S.wireValid(env.N()) {
			return
		}
		if n.sentT {
			return // line 48: no ACK once T was distributed
		}
		if n.pendingS.add(n.s, from, m.S) {
			n.acceptS(env, from, m.S)
		}
	case ackMsg:
		n.acks.Add(from)
		if !n.sentReady && n.acks.HasQuorum() {
			n.sentReady = true
			env.Broadcast(readyMsg{})
		}
	case readyMsg:
		n.readies.Add(from)
		if !n.sentConfirm && n.readies.HasQuorum() {
			n.sentConfirm = true
			env.Broadcast(confirmMsg{})
		}
	case confirmMsg:
		n.confirms.Add(from)
		if !n.sentConfirm && n.confirms.HasKernel() {
			n.sentConfirm = true
			env.Broadcast(confirmMsg{})
		}
		if !n.sentT && n.confirms.HasQuorum() {
			n.sentT = true
			n.pendingS.clear() // stop acknowledging
			env.Broadcast(distTMsg{From: n.self, T: n.t.Snapshot()})
		}
	case distTMsg:
		if m.From != from || !m.T.wireValid(env.N()) {
			return
		}
		if n.pendingT.add(n.s, from, m.T) {
			n.acceptT(env, from, m.T)
		}
	}
}

// Delivered returns the ag-delivered set, if any.
func (n *ConstantRoundNode) Delivered() (Pairs, bool) {
	if !n.delivered {
		return Pairs{}, false
	}
	return n.output, true
}

// SentS returns the S snapshot this node distributed (zero until sent).
func (n *ConstantRoundNode) SentS() Pairs { return n.sSnapshot }

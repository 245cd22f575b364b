package gather

import (
	"repro/internal/broadcast"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// Dissemination selects the broadcast layer used for the initial inputs.
type Dissemination int

const (
	// UseReliable disseminates inputs via asymmetric reliable broadcast —
	// the protocol as written in the paper (arb-broadcast).
	UseReliable Dissemination = iota
	// UsePlain disseminates via best-effort broadcast. Valid when the
	// sender is correct; the Appendix A all-correct executions use it so
	// the adversarial schedule acts directly on protocol rounds.
	UsePlain
)

// Config configures a gather node.
type Config struct {
	Trust quorum.Assumption
	Input string
	Mode  Dissemination
}

// collector is the round every gather here starts with (Algorithm 3
// lines 42–47): broadcast the input on the layer cfg.Mode selects,
// accumulate the delivered inputs in S, and once S contains a quorum send
// [DISTRIBUTE_S, S] to all.
type collector struct {
	cfg  Config
	self types.ProcessID
	bc   broadcast.Broadcaster

	s         Pairs           // delivered (process, value) pairs
	sSenders  *quorum.Tracker // processes whose input was delivered
	sentS     bool
	sSnapshot Pairs // the S set this node sent (for common-core analysis)
}

func newCollector(cfg Config) collector {
	return collector{cfg: cfg, s: NewPairs(cfg.Trust.N())}
}

// start broadcasts the input. onInput, when non-nil, runs after each
// delivered input enters S; the node routes its traffic through bc.Handle.
func (c *collector) start(env sim.Env, onInput func(sim.Env, types.ProcessID)) {
	c.self = env.Self()
	c.sSenders = quorum.NewTracker(c.cfg.Trust, c.self)
	deliver := func(env sim.Env, slot broadcast.Slot, p broadcast.Payload) {
		src, value := slot.Src, string(p.(broadcast.Bytes))
		if c.collect(env, src, value) && onInput != nil {
			onInput(env, src)
		}
	}
	if c.cfg.Mode == UsePlain {
		c.bc = broadcast.NewPlain(c.self, deliver)
	} else {
		c.bc = broadcast.NewReliable(c.self, c.cfg.Trust, deliver)
	}
	c.bc.Broadcast(env, 0, broadcast.Bytes(c.cfg.Input))
}

// collect adds a delivered input to S and sends DISTRIBUTE_S once S
// contains a quorum. It reports false for a value conflicting with S,
// which reliable broadcast makes unreachable.
func (c *collector) collect(env sim.Env, src types.ProcessID, value string) bool {
	if !c.s.Set(src, value) {
		return false
	}
	c.sSenders.Add(src)
	if !c.sentS && c.sSenders.HasQuorum() {
		c.sentS = true
		c.sSnapshot = c.s.Clone()
		sim.Multicast(env, sim.Cast{Msg: distSMsg{From: c.self, S: c.sSnapshot}})
	}
	return true
}

// SentS returns the S snapshot this node distributed (zero until sent);
// the common core, when it exists, is one of these snapshots.
func (c *collector) SentS() Pairs { return c.sSnapshot }

// outcome is a gather's delivered set, fixed once.
type outcome struct {
	delivered bool
	output    Pairs
}

// deliverOnce delivers a snapshot of u the first time from, the senders
// whose sets u accumulated, contains a quorum.
func (o *outcome) deliverOnce(from *quorum.Tracker, u Pairs) {
	if !o.delivered && from.HasQuorum() {
		o.delivered = true
		o.output = u.Clone()
	}
}

// Delivered returns the delivered set, if any.
func (o *outcome) Delivered() (Pairs, bool) {
	if !o.delivered {
		return Pairs{}, false
	}
	return o.output, true
}

// Message types shared by the gather protocols.

type distSMsg struct {
	From types.ProcessID
	S    Pairs
}

type distTMsg struct {
	From types.ProcessID
	T    Pairs
}

// ThreeRoundNode runs Algorithm 1 / Algorithm 2: three rounds of
// collect-and-forward with quorum triggers, no control messages.
//
//	round 1: arb-broadcast input; S accumulates deliveries; once S contains
//	         a quorum, send [DISTRIBUTE_S, S] to all.
//	round 2: T accumulates received S sets; once DISTRIBUTE_S messages have
//	         arrived from a quorum, send [DISTRIBUTE_T, T] to all.
//	round 3: U accumulates received T sets; once DISTRIBUTE_T messages have
//	         arrived from a quorum, g-deliver U.
//
// With quorum.Threshold this is exactly the threshold gather of Abraham et
// al. (Algorithm 1, triggers "received n−f messages"); with an asymmetric
// System it is the unsound quorum-replacement attempt (Algorithm 2).
//
// T and U grow only from DISTRIBUTE messages (Algorithm 1 lines 11–17);
// the local S reaches T via self-delivery of this node's own DISTRIBUTE_S.
// Keeping this exact matches the abstract execution of Listing 1
// set-for-set.
type ThreeRoundNode struct {
	collector
	outcome

	t Pairs
	u Pairs

	sFrom *quorum.Tracker // processes whose DISTRIBUTE_S arrived
	tFrom *quorum.Tracker // processes whose DISTRIBUTE_T arrived
	sentT bool
}

var _ sim.Node = (*ThreeRoundNode)(nil)

// NewThreeRoundNode creates a gather node; the protocol starts at Init.
func NewThreeRoundNode(cfg Config) *ThreeRoundNode {
	n := cfg.Trust.N()
	return &ThreeRoundNode{collector: newCollector(cfg), t: NewPairs(n), u: NewPairs(n)}
}

// Init implements sim.Node: it g-proposes the configured input.
func (n *ThreeRoundNode) Init(env sim.Env) {
	n.sFrom = quorum.NewTracker(n.cfg.Trust, env.Self())
	n.tFrom = quorum.NewTracker(n.cfg.Trust, env.Self())
	n.start(env, nil)
}

// Receive implements sim.Node.
func (n *ThreeRoundNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if n.bc.Handle(env, from, msg) {
		return
	}
	switch m := msg.(type) {
	case distSMsg:
		if m.From != from || !m.S.wireValid(env.N()) {
			return // authenticated links; malformed wire payloads dropped
		}
		// Algorithm 1/2 line 11–12: merge unconditionally into T only (U
		// accumulates DISTRIBUTE_T contents exclusively, line 15–16).
		n.t.Merge(m.S)
		n.sFrom.Add(from)
		if !n.sentT && n.sFrom.HasQuorum() {
			n.sentT = true
			sim.Multicast(env, sim.Cast{Msg: distTMsg{From: n.self, T: n.t.Clone()}})
		}
	case distTMsg:
		if m.From != from || !m.T.wireValid(env.N()) {
			return
		}
		n.u.Merge(m.T)
		n.tFrom.Add(from)
		n.deliverOnce(n.tFrom, n.u)
	}
}

// AnalyzeCommonCore checks the common-core property over a set of
// processes (typically the maximal guild): it returns the processes j in
// `within` whose sent S snapshot is contained in the delivered U set of
// every member of `within` that delivered. Nodes that have not delivered
// are skipped; sSnap/uSets index by process ID.
func AnalyzeCommonCore(n int, sSnap map[types.ProcessID]Pairs, uSets map[types.ProcessID]Pairs, within types.Set) types.Set {
	out := types.NewSet(n)
	for _, j := range within.Members() {
		sj, ok := sSnap[j]
		if !ok || sj.IsZero() {
			continue
		}
		good := true
		for _, i := range within.Members() {
			u, ok := uSets[i]
			if !ok {
				continue
			}
			if !u.ContainsAll(sj) {
				good = false
				break
			}
		}
		if good {
			out.Add(j)
		}
	}
	return out
}

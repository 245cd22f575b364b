package scenario

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/types"
)

// Byzantine node wrappers. --------------------------------------------------
//
// A Byzantine node runs the real protocol node but intercepts its outbound
// traffic through a hooked Env, so the adversarial behaviour lives entirely
// at the network boundary: the inner node's state machine is untouched and
// its results remain observable through sim.Unwrap. Selective, StaleReplay
// and Equivocate each build one from two hooks, for the inner node's Sends
// and for its sim.Multicast acts, whose closures hold the behaviour's
// per-node state. A broadcast is a multicast with a nil To, and a vote
// goes to its sender's audience, quorum.Assumption.Audience, by one
// sim.Multicast; so a hook treats every multicast alike, whatever its
// audience and form. The hooks forward through the Env the node is given,
// whichever it is: one that is no sim.Multicaster, as the TCP host's is
// not, gets one Send per destination. An Env offers no randomness, so a
// wrapper draws nothing from the run's RNG (see the package comment's
// determinism contract).

// byzantine is the one Byzantine node wrapper.
type byzantine struct {
	inner     sim.Node
	send      func(env sim.Env, to types.ProcessID, msg sim.Message)
	multicast func(env sim.Env, c sim.Cast)
	hook      hookEnv
}

var _ sim.Node = (*byzantine)(nil)
var _ sim.Unwrapper = (*byzantine)(nil)

func newByzantine(inner sim.Node, send func(sim.Env, types.ProcessID, sim.Message), multicast func(sim.Env, sim.Cast)) *byzantine {
	b := &byzantine{inner: inner, send: send, multicast: multicast}
	b.hook.owner = b
	return b
}

// Init implements sim.Node.
func (b *byzantine) Init(env sim.Env) {
	b.hook.base = env
	b.inner.Init(&b.hook)
	b.hook.base = nil
}

// Receive implements sim.Node.
func (b *byzantine) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	b.hook.base = env
	b.inner.Receive(&b.hook, from, msg)
	b.hook.base = nil
}

// Unwrap implements sim.Unwrapper.
func (b *byzantine) Unwrap() sim.Node { return b.inner }

// hookEnv is the Env the inner node runs on: it routes the node's sends
// to its owner's hooks, with the Env of the current Init or Receive call
// to forward (possibly mutated) traffic through. Only the goroutine
// executing the node touches it, matching the Env single-call contract.
type hookEnv struct {
	base  sim.Env
	owner *byzantine
}

var _ sim.Env = (*hookEnv)(nil)
var _ sim.Multicaster = (*hookEnv)(nil)

func (h *hookEnv) Self() types.ProcessID { return h.base.Self() }
func (h *hookEnv) N() int                { return h.base.N() }
func (h *hookEnv) Now() sim.VirtualTime  { return h.base.Now() }

func (h *hookEnv) Send(to types.ProcessID, msg sim.Message) {
	h.owner.send(h.base, to, msg)
}

// Multicast implements sim.Multicaster.
func (h *hookEnv) Multicast(c sim.Cast) {
	h.owner.multicast(h.base, c)
}

// forward is the send hook of a behaviour that passes Sends on untouched.
func forward(env sim.Env, to types.ProcessID, msg sim.Message) { env.Send(to, msg) }

// NodeFault constructors. ----------------------------------------------------

// Mute replaces process p with a node that never sends anything.
func Mute(p types.ProcessID) NodeFault {
	return NodeFault{P: p, Correct: false, Wrap: func(sim.Node) sim.Node {
		return sim.MuteNode{}
	}}
}

// Churn takes process p down over [crashAt, recoverAt) by one link rule
// over that window on every link with p at either end, its own included.
// Buffered, the rule holds what it matches until recoverAt: p looks like
// a correct process with slow links, and counts as correct. Lossy, it
// drops it, and p is faulty. As for every rule, the window applies at
// send time: a message in flight at crashAt still arrives, and p's
// replies to it are held or dropped. Churn panics unless
// 0 < crashAt < recoverAt.
func Churn(p types.ProcessID, crashAt, recoverAt sim.VirtualTime, buffer bool) NodeFault {
	if crashAt <= 0 {
		panic("scenario: Churn needs crashAt > 0 (Mute is a process that never runs)")
	}
	if recoverAt <= crashAt {
		panic(fmt.Sprintf("scenario: Churn recoverAt %d must be after crashAt %d", recoverAt, crashAt))
	}
	r := Rule{
		Window: Window{From: crashAt, Until: recoverAt},
		Links:  func(from, to types.ProcessID) bool { return from == p || to == p },
	}
	if buffer {
		r.HoldUntil = recoverAt
	} else {
		r.Drop = 1
	}
	return NodeFault{P: p, Correct: buffer, Rules: []Rule{r}}
}

// Selective makes process p a Byzantine sender that talks only to the
// allowed set: every Send or multicast of its node is suppressed for
// destinations outside allow (a multicast degenerates to per-destination
// sends to the allowed members, in its own order). Reliable dissemination
// must tolerate it: receivers inside allow echo the vertex onward.
func Selective(p types.ProcessID, allow types.Set) NodeFault {
	send := func(env sim.Env, to types.ProcessID, msg sim.Message) {
		if allow.Contains(to) {
			env.Send(to, msg)
		}
	}
	multicast := func(env sim.Env, c sim.Cast) {
		self := env.Self()
		c.Each(env.N(), func(q types.ProcessID) { send(env, q, c.For(self, q)) })
	}
	return NodeFault{P: p, Correct: false, Wrap: func(inner sim.Node) sim.Node {
		return newByzantine(inner, send, multicast)
	}}
}

// StaleReplay makes process p a Byzantine sender that replays recorded
// traffic: every every-th broadcast or multicast of its node is followed
// by a replay of the oldest recorded one, to its own recipients in its
// own forms — a genuine message reinjected long after its time (values
// < 1 behave as 1: every one is followed by a replay). The cadence is a
// deterministic counter, never randomness. Handlers must treat the
// replays as the duplicate deliveries they are; p is classified faulty
// even though the replays carry only genuine messages.
func StaleReplay(p types.ProcessID, every int) NodeFault {
	every = max(every, 1)
	return NodeFault{P: p, Correct: false, Wrap: func(inner sim.Node) sim.Node {
		count := 0
		// first is the oldest recorded act (none while its Msg is nil),
		// with its own copy of RefTo: the inner node may change the set it
		// lent after the call.
		var first sim.Cast
		return newByzantine(inner, forward, func(env sim.Env, c sim.Cast) {
			sim.Multicast(env, c)
			if first.Msg == nil {
				first = c
				first.RefTo = c.RefTo.Clone()
				return
			}
			count++
			if count%every == 0 {
				sim.Multicast(env, first)
			}
		})
	}}
}

// Equivocate makes process p a Byzantine sender that shows different
// processes different histories: each broadcast or multicast of its node
// reaches its recipients in groupA genuinely, while every recipient
// outside groupA instead receives the previous broadcast or multicast
// message again, in full (nothing, before the first). The receiver sets
// are disjoint by construction and the substituted message is a real
// protocol message, so the equivocation is type-correct and must be
// absorbed by reliable dissemination among the correct processes. p
// should keep itself in groupA, or its own protocol state diverges from
// what it disseminates.
func Equivocate(p types.ProcessID, groupA types.Set) NodeFault {
	return NodeFault{P: p, Correct: false, Wrap: func(inner sim.Node) sim.Node {
		var prev sim.Message
		return newByzantine(inner, forward, func(env sim.Env, c sim.Cast) {
			self := env.Self()
			c.Each(env.N(), func(q types.ProcessID) {
				if groupA.Contains(q) {
					env.Send(q, c.For(self, q))
				} else if prev != nil {
					env.Send(q, prev)
				}
			})
			prev = c.Msg
		})
	}}
}

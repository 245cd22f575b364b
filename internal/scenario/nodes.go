package scenario

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/types"
)

// Byzantine node wrappers. --------------------------------------------------
//
// Each wrapper runs the real protocol node but intercepts its outbound
// traffic through a hooked Env, so the adversarial behaviour lives entirely
// at the network boundary: the inner node's state machine is untouched and
// its results remain observable through sim.Unwrap. The wrappers hold only
// per-node state, and an Env offers no randomness, so they draw nothing
// from the run's RNG (see the package comment's determinism contract).

// sendHook is the interception point a wrapper implements: it receives the
// inner node's Send calls, and its sim.Multicast calls as multicast acts,
// together with the real Env to forward (possibly mutated) traffic
// through. A broadcast is a multicast with a nil To, and a vote goes to its
// sender's audience, quorum.Assumption.Audience, by one sim.Multicast; so
// a wrapper treats every multicast alike, whatever its audience and form.
type sendHook interface {
	hookSend(env sim.Env, to types.ProcessID, msg sim.Message)
	hookMulticast(env sim.Env, c sim.Cast)
}

// hookEnv wraps the Env of the current Init/Receive call, routing the
// inner node's sends to the owning wrapper's hook. One hookEnv is pooled
// per wrapper and rebound to the live Env per call — only the goroutine
// executing the node touches it, matching the Env single-call contract.
type hookEnv struct {
	base  sim.Env
	owner sendHook
}

var _ sim.Env = (*hookEnv)(nil)
var _ sim.Multicaster = (*hookEnv)(nil)

func (h *hookEnv) Self() types.ProcessID { return h.base.Self() }
func (h *hookEnv) N() int                { return h.base.N() }
func (h *hookEnv) Now() sim.VirtualTime  { return h.base.Now() }

func (h *hookEnv) Send(to types.ProcessID, msg sim.Message) {
	h.owner.hookSend(h.base, to, msg)
}

// Multicast implements sim.Multicaster.
func (h *hookEnv) Multicast(c sim.Cast) {
	h.owner.hookMulticast(h.base, c)
}

// run executes fn (an inner Init or Receive) with the hook rebound to env.
func (h *hookEnv) run(env sim.Env, fn func(sim.Env)) {
	h.base = env
	fn(h)
	h.base = nil
}

// SelectiveNode is a Byzantine sender that talks only to an allowed subset:
// every Send or multicast of the inner node is suppressed for destinations
// outside Allow (a multicast degenerates to per-destination sends to the
// allowed members, in its own order). Reliable dissemination must tolerate
// it: receivers inside Allow echo the vertex onward.
type SelectiveNode struct {
	Inner sim.Node
	Allow types.Set

	hook hookEnv
}

var _ sim.Node = (*SelectiveNode)(nil)
var _ sim.Unwrapper = (*SelectiveNode)(nil)

// Init implements sim.Node.
func (s *SelectiveNode) Init(env sim.Env) {
	s.hook.owner = s
	s.hook.run(env, s.Inner.Init)
}

// Receive implements sim.Node.
func (s *SelectiveNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	s.hook.owner = s
	s.hook.run(env, func(e sim.Env) { s.Inner.Receive(e, from, msg) })
}

func (s *SelectiveNode) hookSend(env sim.Env, to types.ProcessID, msg sim.Message) {
	if s.Allow.Contains(to) {
		env.Send(to, msg)
	}
}

func (s *SelectiveNode) hookMulticast(env sim.Env, c sim.Cast) {
	self := env.Self()
	c.Each(env.N(), func(p types.ProcessID) { s.hookSend(env, p, c.For(self, p)) })
}

// Unwrap implements sim.Unwrapper.
func (s *SelectiveNode) Unwrap() sim.Node { return s.Inner }

// StaleReplayNode is a Byzantine sender that replays recorded traffic:
// every Every-th broadcast or multicast of the inner node is followed by a
// replay of the oldest recorded one, to its own recipients in its own
// forms — a genuine message reinjected long after its time. The cadence
// is a deterministic counter, never randomness, so the wrapper is safe
// inside concurrent Receive execution. Handlers must treat the replays as
// the duplicate deliveries they are.
type StaleReplayNode struct {
	Inner sim.Node
	// Every triggers a replay after each Every-th broadcast or multicast
	// (values < 1 behave as 1: every one is followed by a replay).
	Every int

	hook  hookEnv
	count int
	// first is the oldest recorded act (none while its Msg is nil), with
	// its own copy of RefTo: the inner node may change the set it lent
	// after the call.
	first sim.Cast
}

var _ sim.Node = (*StaleReplayNode)(nil)
var _ sim.Unwrapper = (*StaleReplayNode)(nil)

// Init implements sim.Node.
func (s *StaleReplayNode) Init(env sim.Env) {
	s.hook.owner = s
	s.hook.run(env, s.Inner.Init)
}

// Receive implements sim.Node.
func (s *StaleReplayNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	s.hook.owner = s
	s.hook.run(env, func(e sim.Env) { s.Inner.Receive(e, from, msg) })
}

func (s *StaleReplayNode) hookSend(env sim.Env, to types.ProcessID, msg sim.Message) {
	env.Send(to, msg)
}

func (s *StaleReplayNode) hookMulticast(env sim.Env, c sim.Cast) {
	sim.Multicast(env, c)
	if s.first.Msg == nil {
		s.first = c
		s.first.RefTo = c.RefTo.Clone()
		return
	}
	s.count++
	every := s.Every
	if every < 1 {
		every = 1
	}
	if s.count%every == 0 {
		sim.Multicast(env, s.first)
	}
}

// Unwrap implements sim.Unwrapper.
func (s *StaleReplayNode) Unwrap() sim.Node { return s.Inner }

// EquivocateNode is a Byzantine sender that shows different processes
// different histories: each broadcast or multicast of the inner node
// reaches its recipients in GroupA genuinely, while every recipient
// outside GroupA instead receives the *previous* broadcast or multicast
// message again, in full (nothing, before the first). The receiver
// sets are disjoint by construction and the substituted message is a real
// protocol message, so the equivocation is type-correct and must be
// absorbed by reliable dissemination among the correct processes.
type EquivocateNode struct {
	Inner sim.Node
	// GroupA receives genuine broadcasts and multicasts; its complement
	// gets the replayed previous one. The sender should keep itself in GroupA, or its
	// own protocol state diverges from what it disseminates.
	GroupA types.Set

	hook hookEnv
	prev sim.Message
}

var _ sim.Node = (*EquivocateNode)(nil)
var _ sim.Unwrapper = (*EquivocateNode)(nil)

// Init implements sim.Node.
func (q *EquivocateNode) Init(env sim.Env) {
	q.hook.owner = q
	q.hook.run(env, q.Inner.Init)
}

// Receive implements sim.Node.
func (q *EquivocateNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	q.hook.owner = q
	q.hook.run(env, func(e sim.Env) { q.Inner.Receive(e, from, msg) })
}

func (q *EquivocateNode) hookSend(env sim.Env, to types.ProcessID, msg sim.Message) {
	env.Send(to, msg)
}

func (q *EquivocateNode) hookMulticast(env sim.Env, c sim.Cast) {
	self := env.Self()
	c.Each(env.N(), func(p types.ProcessID) {
		if q.GroupA.Contains(p) {
			env.Send(p, c.For(self, p))
		} else if q.prev != nil {
			env.Send(p, q.prev)
		}
	})
	q.prev = c.Msg
}

// Unwrap implements sim.Unwrapper.
func (q *EquivocateNode) Unwrap() sim.Node { return q.Inner }

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

// Selective makes process p send only to the allowed set (Byzantine).
func Selective(p types.ProcessID, allow types.Set) NodeFault {
	return NodeFault{P: p, Correct: false, Wrap: func(inner sim.Node) sim.Node {
		return &SelectiveNode{Inner: inner, Allow: allow}
	}}
}

// StaleReplay makes process p resend its oldest recorded broadcast or
// multicast after every every-th new one (Byzantine: classified faulty even though
// the replays carry only genuine messages).
func StaleReplay(p types.ProcessID, every int) NodeFault {
	return NodeFault{P: p, Correct: false, Wrap: func(inner sim.Node) sim.Node {
		return &StaleReplayNode{Inner: inner, Every: every}
	}}
}

// Equivocate makes process p broadcast and multicast genuinely to groupA
// and replay its previous broadcast or multicast to everyone else
// (Byzantine).
func Equivocate(p types.ProcessID, groupA types.Set) NodeFault {
	return NodeFault{P: p, Correct: false, Wrap: func(inner sim.Node) sim.Node {
		return &EquivocateNode{Inner: inner, GroupA: groupA}
	}}
}

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
// [DISTRIBUTE, 0, S] to all.
type collector struct {
	cfg Config
	bc  broadcast.Broadcaster

	s         Pairs           // delivered (process, value) pairs
	sSenders  *quorum.Tracker // processes whose input was delivered
	sSnapshot Pairs           // the S set this node sent (zero until sent)
}

func newCollector(cfg Config) collector {
	return collector{cfg: cfg, s: NewPairs(cfg.Trust.N())}
}

// start broadcasts the input. onInput, when non-nil, runs after each
// delivered input enters S; the node routes its traffic through bc.Handle.
func (c *collector) start(env sim.Env, onInput func(sim.Env, types.ProcessID)) {
	self := env.Self()
	c.sSenders = quorum.NewTracker(c.cfg.Trust, self)
	deliver := func(env sim.Env, slot broadcast.Slot, p broadcast.Payload) {
		src, value := slot.Src, string(p.(broadcast.Bytes))
		if c.collect(env, src, value) && onInput != nil {
			onInput(env, src)
		}
	}
	if c.cfg.Mode == UsePlain {
		c.bc = broadcast.NewPlain(self, deliver)
	} else {
		c.bc = broadcast.NewReliable(self, c.cfg.Trust, deliver)
	}
	c.bc.Broadcast(env, 0, broadcast.Bytes(c.cfg.Input))
}

// collect adds a delivered input to S and distributes S once S contains a
// quorum. It reports false for a value conflicting with S, which reliable
// broadcast makes unreachable.
func (c *collector) collect(env sim.Env, src types.ProcessID, value string) bool {
	if !c.s.Set(src, value) {
		return false
	}
	c.sSenders.Add(src)
	if c.sSnapshot.IsZero() && c.sSenders.HasQuorum() {
		c.sSnapshot = c.s.Clone()
		sim.Multicast(env, sim.Cast{Msg: distMsg{Level: levelS, Set: c.sSnapshot}})
	}
	return true
}

// SentS returns the S snapshot this node distributed (zero until sent);
// the common core, when it exists, is one of these snapshots.
func (c *collector) SentS() Pairs { return c.sSnapshot }

// DISTRIBUTE levels: the paper's DISTRIBUTE_S, DISTRIBUTE_T and
// DISTRIBUTE_U. The codec carries no other.
const (
	levelS = iota
	levelT
	levelU
)

// distMsg is [DISTRIBUTE, level, set], every gather's one set-carrying
// message. Its sender is the link's: the links are authenticated.
type distMsg struct {
	Level int
	Set   Pairs
}

// levels is the quorum-merge step every gather node here runs, Listing 1's
// round over the network: sets[k] merges the sets received at level k,
// and from[k] holds their senders. The first time level k's senders hold
// a quorum, set k goes out at level k+1; at the last level it is
// g-delivered instead.
type levels struct {
	sets   []Pairs
	from   []*quorum.Tracker
	output Pairs // the delivered set (zero until delivered)
}

// newLevels returns the levels of a gather of rounds rounds: the first
// round distributes S, and each later one merges one level.
func newLevels(rounds int) levels { return levels{sets: make([]Pairs, rounds-1)} }

// init allocates the sets and the senders' trackers of process self.
func (l *levels) init(trust quorum.Assumption, self types.ProcessID) {
	l.from = make([]*quorum.Tracker, len(l.sets))
	for k := range l.sets {
		l.sets[k] = NewPairs(trust.N())
		l.from[k] = quorum.NewTracker(trust, self)
	}
}

// holds reports whether l keeps a set at m's level and m's set is well
// formed among n processes; a node drops every other DISTRIBUTE. A
// negative level has no wire form, but the simulator still delivers it.
func (l *levels) holds(m distMsg, n int) bool {
	return uint(m.Level) < uint(len(l.sets)) && m.Set.wireValid(n)
}

// merge merges set, received from `from` at level k, into set k, and sends
// or delivers set k the first time level k's senders hold a quorum.
func (l *levels) merge(env sim.Env, k int, from types.ProcessID, set Pairs) {
	l.sets[k].Merge(set)
	had := l.from[k].HasQuorum()
	l.from[k].Add(from)
	if had || !l.from[k].HasQuorum() {
		return
	}
	if k < len(l.sets)-1 {
		sim.Multicast(env, sim.Cast{Msg: distMsg{Level: k + 1, Set: l.sets[k].Clone()}})
		return
	}
	l.output = l.sets[k].Clone()
}

// Delivered returns the delivered set, if any.
func (l *levels) Delivered() (Pairs, bool) { return l.output, !l.output.IsZero() }

// mergeNode runs the merge step at every level, with no control messages:
//
//	round 1: arb-broadcast input; S accumulates deliveries; once S contains
//	         a quorum, send [DISTRIBUTE, 0, S] to all.
//	round k: set k−2 accumulates the sets received at level k−2; the first
//	         time they have arrived from a quorum, send [DISTRIBUTE, k−1,
//	         set] to all, or, in the last round, g-deliver the set.
//
// Three rounds (S, T, U) are Algorithm 1 with quorum.Threshold (triggers
// "received n−f messages") and, with an asymmetric System, the unsound
// quorum-replacement attempt of Algorithm 2. Two rounds (S, U) are Tusk's
// common-core primitive (paper §3.2: "Tusk uses a simpler 2 round common
// core primitive"), generalized the same way: with threshold trust a
// common core of n−2f elements exists, and the Figure 1 counterexample
// defeats it too (TestTuskTwoRoundCounterexample).
//
// The sets grow only from DISTRIBUTE messages (Algorithm 1 lines 11–17);
// the local S reaches the first via self-delivery of this node's own
// level-0 DISTRIBUTE. Keeping this exact matches the abstract execution of
// Listing 1 set-for-set.
type mergeNode struct {
	collector
	levels
}

// newMergeNode creates a gather node of rounds rounds (2 or 3); the
// protocol starts at Init.
func newMergeNode(cfg Config, rounds int) *mergeNode {
	return &mergeNode{collector: newCollector(cfg), levels: newLevels(rounds)}
}

// Init implements sim.Node: it g-proposes the configured input.
func (n *mergeNode) Init(env sim.Env) {
	n.levels.init(n.cfg.Trust, env.Self())
	n.start(env, nil)
}

// Receive implements sim.Node.
func (n *mergeNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if n.bc.Handle(env, from, msg) {
		return
	}
	if m, ok := msg.(distMsg); ok && n.holds(m, env.N()) {
		n.merge(env, m.Level, from, m.Set)
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

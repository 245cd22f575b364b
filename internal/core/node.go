// Package core implements the paper's primary contribution: the first
// asynchronous, randomized, DAG-based atomic-broadcast (consensus) protocol
// with asymmetric trust (Algorithms 4, 5 and 6).
//
// The protocol is DAG-Rider restructured for asymmetric quorums. Each wave
// is four rounds of vertex dissemination over asymmetric reliable
// broadcast, arranged so that every wave executes the constant-round
// asymmetric gather of Algorithm 3:
//
//   - Round advance rule: a round completes when the process's DAG contains
//     vertices from one of its quorums (replacing DAG-Rider's 2f+1 count).
//   - The round 2→3 transition additionally waits for the ACK/READY/CONFIRM
//     control-flow (the gather's DISTRIBUTE_T gating): receivers ACK
//     round-2 vertices, a quorum of ACKs triggers READY, a quorum of
//     READYs triggers CONFIRM, a kernel of CONFIRMs amplifies CONFIRM, and
//     a quorum of CONFIRMs finally opens the gate. Each wave runs one
//     gather.Gate, the single implementation of Algorithm 3's lines 51–59,
//     which the standalone gather runs too. A gate counts these messages
//     only through its owner's quorum and kernel predicates, so, like
//     reliable broadcast's votes (see the internal/broadcast package
//     comment), each goes only to the processes that can count it: READY
//     and CONFIRM to the sender's audience (quorum.Assumption.Audience),
//     and the ACK of a vertex to its source only if the ACKer lies in one
//     of the source's quorums.
//     The revealed coin's shares go to the audience too.
//   - Commit rule: a wave's coin-elected leader vertex commits if the
//     round-4 vertices of some process's quorum all have strong paths to
//     it.
//
// The first rule, the vertex validity rule, buffering, vertex creation and
// ordering are DAG-Rider's skeleton, rider.Base, which internal/baseline
// runs too. Node embeds it and adds the rest through rider.Rules: the
// gather gating, the commit rule, the revealed coin, and the GCDepth and
// PipelineDepth policies.
//
// Two deliberate, documented strengthenings over the paper's pseudocode
// (both required by its own proofs):
//
//  1. ACK/READY/CONFIRM messages carry the wave number and are counted per
//     wave. The pseudocode keeps single arrays and resets them at the
//     round 2→3 transition, which lets a fast neighbour's wave-(w+1)
//     control traffic leak into wave w's counters; the proofs (Lemma 4.3)
//     treat each wave as an independent gather execution, which is what
//     per-wave counting implements.
//  2. A process ACKs a round-2 vertex when the vertex is *added to its
//     DAG* (causal history complete), not merely arb-delivered. This is
//     the DAG analogue of Algorithm 3's "S_j ⊆ S_i" precondition on
//     ACKing DISTRIBUTE_S, and it is what makes the ACKer's future
//     round-3 vertex actually reference the ACKed vertex.
package core

import (
	"repro/internal/coin"
	"repro/internal/dag"
	"repro/internal/gather"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// Control messages (Algorithm 5), tagged by wave. Each holds only a
// pointer to its body, so an interface holds it without boxing at any
// wave (a struct of one int boxes for free only below 256); m.Wave is
// promoted from the body.

// ctl is the body of an ACK, READY or CONFIRM. It is never written after a
// message carrying it is sent, so messages of one wave may share it.
type ctl struct{ Wave int }

type ackMsg struct{ *ctl }

type readyMsg struct{ *ctl }

type confirmMsg struct{ *ctl }

// ctls is the carver control bodies are cut from: the ACKs this process's
// nodes send and every control message the codec decodes. READY and
// CONFIRM reuse the body of the message that triggered them.
var ctls wire.Carver[ctl]

// Config configures one consensus node.
type Config struct {
	// Trust is the asymmetric (or threshold) quorum assumption.
	Trust quorum.Assumption
	// Coin elects wave leaders; all nodes of a run must share it.
	Coin coin.Source
	// Workload supplies the blocks this node proposes. Nil means empty
	// blocks.
	Workload rider.Workload
	// MaxRound stops vertex creation beyond this round so simulations
	// quiesce; 0 means unbounded.
	MaxRound int
	// RevealedCoin gates each wave's leader election behind a coin-share
	// exchange (coin.Shared): the leader of wave w becomes known only
	// after shares from a quorum, reproducing DAG-Rider's discipline of
	// revealing the coin only once enough processes finished the wave.
	// Off by default (the PRF coin is evaluated directly).
	RevealedCoin bool
	// GCDepth enables Bullshark-style garbage collection: after deciding
	// wave w, rounds below round(w,1)−GCDepth whose vertices were all
	// delivered are pruned, bounding memory (the paper flags DAG-Rider's
	// unbounded memory in §4.5). 0 disables GC (the paper's protocol).
	// GC trades the eventual delivery of extremely late vertices for the
	// bound; see the pruning notes in internal/dag. When enabled it also
	// prunes the reliable-broadcast slot trackers, the revealed-coin share
	// maps and the stale pending-coin entries below the same horizon, so
	// every per-round/per-wave structure of the node is bounded — the
	// service layer (internal/service) requires this for unbounded runs.
	GCDepth int
	// PipelineDepth bounds how many waves ahead of the last decided wave
	// this node will propose into: with depth d, vertex creation stalls at
	// a wave boundary rather than enter wave decidedWave+d+1. The DAG
	// protocol pipelines naturally (rounds advance without waiting for
	// decisions); the bound is what keeps the undecided window — and hence
	// the live state GC cannot reclaim — finite over an unbounded run.
	// While stalled the node still absorbs vertices, answers control
	// traffic and retries the pending wave commit on every step, so the
	// stall lifts as soon as the wave decides. 0 means unbounded (the
	// batch-run behaviour).
	PipelineDepth int
	// DeliverySink, when non-nil, receives every atomically delivered
	// vertex instead of the node accumulating it in Deliveries() — the
	// long-lived service applies deliveries to a state machine and must
	// not grow an in-memory log forever. Same for CommitSink and
	// Commits(). For one commit the node invokes DeliverySink for each
	// delivered vertex first, then CommitSink once: a sink consumer sees
	// "apply the wave's deliveries, then observe the commit", which is
	// the snapshot trigger ordering internal/service counts on.
	DeliverySink func(rider.Delivery)
	// CommitSink, when non-nil, receives wave-commit events instead of
	// Commits() accumulating them.
	CommitSink func(rider.CommitEvent)
}

// Node is one process running the asymmetric DAG-based consensus: the
// DAG-Rider skeleton of rider.Base under the Config's quorum assumption,
// plus the gather control flow, the revealed coin and garbage collection.
type Node struct {
	rider.Base
	cfg  Config
	self types.ProcessID

	// waves holds each live wave's ACK/READY/CONFIRM gate; dropped is the
	// highest wave whose gate Propose deleted (0 before any), and spare
	// holds deleted gates, reset, for later waves.
	waves   map[int]*gather.Gate
	dropped int
	spare   []*gather.Gate

	// shared is the revealed coin (nil when Config.RevealedCoin is off);
	// pendingCoin holds waves whose commit attempt awaits the reveal.
	shared      *coin.Shared
	pendingCoin map[int]bool

	// ack is the body of the last ACK sent, shared by the next ones of
	// its wave.
	ack *ctl
}

var _ sim.Node = (*Node)(nil)

// NewNode creates a consensus node; the protocol starts at Init.
func NewNode(cfg Config) *Node {
	return &Node{
		cfg:         cfg,
		waves:       map[int]*gather.Gate{},
		pendingCoin: map[int]bool{},
	}
}

// Init implements sim.Node.
func (n *Node) Init(env sim.Env) {
	n.self = env.Self()
	if n.cfg.RevealedCoin {
		n.shared = coin.NewShared(n.self, n.cfg.Trust, n.cfg.Coin)
	}
	n.Start(env, rider.Setup{
		Trust:        n.cfg.Trust,
		Workload:     n.cfg.Workload,
		MaxRound:     n.cfg.MaxRound,
		DeliverySink: n.cfg.DeliverySink,
		CommitSink:   n.cfg.CommitSink,
	}, rules{n})
}

// gate returns wave w's gate, creating it on first use, or nil when w is
// at or below the dropped wave, whose late control traffic is ignored
// rather than re-creating its gate (which would send READY or CONFIRM a
// second time and never be deleted again).
//
// Ignoring it is safe: Propose drops wave w only after this process left
// w's round 2, so w's gate had opened. Opening took CONFIRMs from a
// quorum Q, which contains a kernel, so this process had already sent its
// CONFIRM. The correct members of Q sent theirs too, each to its
// audience, so a guild member g receives the CONFIRMs of Q's correct
// members in U_g, the union of g's quorums. Those form a kernel for g:
// Q's correct members meet every quorum of g, and every quorum of g lies
// inside U_g. So g amplifies to CONFIRM without any late READY or CONFIRM
// from this process.
func (n *Node) gate(w int) *gather.Gate {
	if w <= n.dropped {
		return nil
	}
	g, ok := n.waves[w]
	if !ok {
		if k := len(n.spare); k > 0 {
			g = n.spare[k-1]
			n.spare = n.spare[:k-1]
		} else {
			g = gather.NewGate(n.cfg.Trust, n.self)
		}
		n.waves[w] = g
	}
	return g
}

// Receive implements sim.Node.
func (n *Node) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	switch m := msg.(type) {
	case ackMsg:
		if g := n.gate(m.Wave); g != nil && g.Ack(from) {
			sim.Multicast(env, sim.Cast{To: n.cfg.Trust.Audience(n.self), Msg: readyMsg{m.ctl}})
		}
	case readyMsg:
		if g := n.gate(m.Wave); g != nil && g.Ready(from) {
			sim.Multicast(env, sim.Cast{To: n.cfg.Trust.Audience(n.self), Msg: confirmMsg{m.ctl}})
		}
	case confirmMsg:
		if g := n.gate(m.Wave); g != nil {
			if confirm, _ := g.Confirm(from); confirm {
				sim.Multicast(env, sim.Cast{To: n.cfg.Trust.Audience(n.self), Msg: m})
			}
		}
	case coin.ShareMsg:
		if n.shared == nil {
			return
		}
		if becameReady, _ := n.shared.Handle(env, from, msg); becameReady {
			n.retryPendingWaves(env)
		}
	default:
		n.Base.Receive(env, from, msg)
		return
	}
	n.Step(env)
}

// retryPendingWaves re-attempts commits that were blocked on the coin
// reveal, in wave order.
func (n *Node) retryPendingWaves(env sim.Env) {
	for w := n.DecidedWave() + 1; w <= rider.RoundWave(n.Round()); w++ {
		if n.pendingCoin[w] {
			delete(n.pendingCoin, w)
			n.waveReady(env, w)
		}
	}
}

// rules are the core protocol's own rules, as rider.Base calls them.
type rules struct{ *Node }

// Leader returns the coin-elected leader of wave w, once revealed when
// the coin is.
func (n rules) Leader(w int) (types.ProcessID, bool) {
	if n.shared != nil {
		return n.shared.Leader(w)
	}
	return n.cfg.Coin.Leader(w), true
}

// Commits is the paper's commit rule: the round-4 vertices of some
// process's quorum all have strong paths to the leader.
func (n rules) Commits(reach types.Set) bool {
	return n.cfg.Trust.HasAnyQuorumWithin(reach)
}

// Inserted sends the gather ACK for a round ≡ 2 (mod 4) vertex when it
// enters the DAG (Algorithm 6 lines 142–143; see the package comment).
func (n rules) Inserted(env sim.Env, v *dag.Vertex) {
	if v.Round%4 != 2 {
		return
	}
	if !n.cfg.Trust.Counts(v.Source, n.self) {
		return // v.Source's gate cannot count this ACK
	}
	if w := rider.RoundWave(v.Round); n.ack == nil || n.ack.Wave != w {
		n.ack = ctls.Cut(ctl{Wave: w})
	}
	env.Send(v.Source, ackMsg{n.ack})
}

// Advance is the round 2→3 gate: the wave's gate must have opened. The
// current round's wave is never a dropped one.
func (n rules) Advance(r int) bool {
	return r%4 != 2 || n.gate(rider.RoundWave(r)).Open()
}

// WaveDone releases the wave's coin share (the revealed-coin discipline)
// and attempts the commit.
func (n rules) WaveDone(env sim.Env, w int) {
	if n.shared != nil {
		n.shared.Release(env, w)
	}
	n.waveReady(env, w)
}

// Propose is the pipeline bound: don't start proposing into a wave more
// than PipelineDepth beyond the last decided one. It can only refuse at a
// wave boundary, where WaveDone runs on every step, so a stalled node
// keeps attempting the blocking commit until it lifts. Once the node
// proposes into a wave, the gate of two waves back is no longer needed and
// is dropped, reset for a later wave.
func (n rules) Propose(r int) bool {
	w := rider.RoundWave(r)
	if n.cfg.PipelineDepth > 0 && w > n.DecidedWave()+n.cfg.PipelineDepth {
		return false
	}
	if w >= 3 {
		if g, ok := n.waves[w-2]; ok {
			g.Reset()
			n.spare = append(n.spare, g)
			delete(n.waves, w-2)
		}
		n.dropped = w - 2
	}
	return true
}

// waveReady attempts to commit wave w once its coin is revealed.
func (n *Node) waveReady(env sim.Env, w int) {
	if w > n.DecidedWave() && n.shared != nil && !n.shared.Ready(w) {
		// Coin not yet revealed: park the attempt; retryPendingWaves
		// resumes it when the shares arrive.
		n.pendingCoin[w] = true
		return
	}
	if n.Commit(env, w) && n.cfg.GCDepth > 0 {
		n.collectGarbage(w)
	}
}

// collectGarbage prunes fully delivered rounds below the GC horizon with
// the skeleton's state, then the node's own per-round and per-wave state.
func (n *Node) collectGarbage(decided int) {
	limit := rider.WaveRound(decided, 1) - n.cfg.GCDepth
	if limit <= 0 {
		return
	}
	n.Prune(limit)
	// The revealed-coin share maps and stale pending-coin entries are
	// per-wave state too; without pruning them a long-lived run grows
	// without bound even though the DAG itself stays flat.
	if n.shared != nil {
		n.shared.PruneBelow(decided)
	}
	for w := range n.pendingCoin {
		if w <= decided {
			delete(n.pendingCoin, w)
		}
	}
}

// LiveStats is a snapshot of every per-round/per-wave structure whose size
// the garbage collector is responsible for bounding. The soak tests sample
// it at snapshot points and assert it stays flat after warm-up.
type LiveStats struct {
	DAGVertices    int // vertices in the live DAG window
	DAGRounds      int // rounds in the live DAG window (Height − PrunedBelow)
	BroadcastSlots int // reliable-broadcast slots with tracker state
	Buffered       int // vertices awaiting causal history
	RoundTrackers  int // per-round source quorum trackers
	WaveCtls       int // per-wave gather control states
	PendingPairs   int // delivered-set entries ("pending pairs")
	CoinWaves      int // revealed-coin per-wave entries plus waves awaiting the reveal
}

// Live returns the node's current live-state counters.
func (n *Node) Live() LiveStats {
	d := n.DAG()
	slots, buffered, trackers, delivered := n.Backlog()
	coinWaves := len(n.pendingCoin)
	if n.shared != nil {
		coinWaves += n.shared.Entries()
	}
	return LiveStats{
		DAGVertices:    d.VertexCount(),
		DAGRounds:      d.Height() - d.PrunedBelow(),
		BroadcastSlots: slots,
		Buffered:       buffered,
		RoundTrackers:  trackers,
		WaveCtls:       len(n.waves),
		PendingPairs:   delivered,
		CoinWaves:      coinWaves,
	}
}

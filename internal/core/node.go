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
//     a quorum of CONFIRMs finally opens the gate (tReady).
//   - Commit rule: a wave's coin-elected leader vertex commits if the
//     round-4 vertices of some process's quorum all have strong paths to
//     it.
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
	"repro/internal/broadcast"
	"repro/internal/coin"
	"repro/internal/dag"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/sim"
	"repro/internal/types"
)

// Control messages (Algorithm 5), tagged by wave.

type ackMsg struct{ Wave int }

type readyMsg struct{ Wave int }

type confirmMsg struct{ Wave int }

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

// waveCtl is the per-wave gather control state. The tallies are
// incremental quorum trackers: each control message updates residual
// counts and the ACK/READY/CONFIRM triggers read in O(1).
type waveCtl struct {
	acks     *quorum.Tracker
	readies  *quorum.Tracker
	confirms *quorum.Tracker

	sentReady   bool
	sentConfirm bool
	tReady      bool
}

// Node is one process running the asymmetric DAG-based consensus.
type Node struct {
	cfg  Config
	self types.ProcessID
	n    int

	arb *broadcast.Reliable
	dag *dag.DAG

	r      int
	buffer []*dag.Vertex
	waves  map[int]*waveCtl

	// roundSrc tracks, per round, the quorum predicate over the sources
	// with a vertex in the local DAG — fed on insertion so the round
	// advance rule is an O(1) read instead of a RoundSources rescan.
	roundSrc map[int]*quorum.Tracker

	decidedWave int
	delivered   map[dag.VertexRef]bool

	// deliveries/commits accumulate only when the corresponding sink is
	// nil — the short-run/test configuration; long-lived service runs set
	// DeliverySink/CommitSink and these stay empty.
	//lint:retained only populated when DeliverySink is nil (test/short-run mode)
	deliveries []rider.Delivery
	//lint:retained only populated when CommitSink is nil (test/short-run mode)
	commits []rider.CommitEvent

	// acked tracks which round-2 vertices were already acknowledged, so
	// buffered vertices are not ACKed twice.
	acked map[dag.VertexRef]bool

	// shared is the revealed coin (nil when Config.RevealedCoin is off);
	// pendingCoin holds waves whose commit attempt awaits the reveal.
	shared      *coin.Shared
	pendingCoin map[int]bool
}

var _ sim.Node = (*Node)(nil)

// NewNode creates a consensus node; the protocol starts at Init.
func NewNode(cfg Config) *Node {
	return &Node{
		cfg:         cfg,
		waves:       map[int]*waveCtl{},
		roundSrc:    map[int]*quorum.Tracker{},
		delivered:   map[dag.VertexRef]bool{},
		acked:       map[dag.VertexRef]bool{},
		pendingCoin: map[int]bool{},
	}
}

// Init implements sim.Node.
func (n *Node) Init(env sim.Env) {
	n.self = env.Self()
	n.n = env.N()
	n.dag = dag.New(n.n)
	for _, g := range rider.Genesis(n.n) {
		if err := n.dag.Add(g); err != nil {
			panic("core: genesis insertion failed: " + err.Error())
		}
		n.roundTracker(g.Round).Add(g.Source)
	}
	n.arb = broadcast.NewReliable(n.self, n.cfg.Trust, n.onVertex)
	if n.cfg.RevealedCoin {
		n.shared = coin.NewShared(n.self, n.cfg.Trust, n.cfg.Coin)
	}
	n.step(env)
}

func (n *Node) wave(w int) *waveCtl {
	c, ok := n.waves[w]
	if !ok {
		c = &waveCtl{
			acks:     quorum.NewTracker(n.cfg.Trust, n.self),
			readies:  quorum.NewTracker(n.cfg.Trust, n.self),
			confirms: quorum.NewTracker(n.cfg.Trust, n.self),
		}
		n.waves[w] = c
	}
	return c
}

// roundTracker returns the round's source tracker, creating it on first
// use.
func (n *Node) roundTracker(r int) *quorum.Tracker {
	t, ok := n.roundSrc[r]
	if !ok {
		t = quorum.NewTracker(n.cfg.Trust, n.self)
		n.roundSrc[r] = t
	}
	return t
}

// Receive implements sim.Node.
func (n *Node) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	switch m := msg.(type) {
	case ackMsg:
		c := n.wave(m.Wave)
		c.acks.Add(from)
		if !c.sentReady && c.acks.HasQuorum() {
			c.sentReady = true
			env.Broadcast(readyMsg{Wave: m.Wave})
		}
	case readyMsg:
		c := n.wave(m.Wave)
		c.readies.Add(from)
		if !c.sentConfirm && c.readies.HasQuorum() {
			c.sentConfirm = true
			env.Broadcast(confirmMsg{Wave: m.Wave})
		}
	case confirmMsg:
		c := n.wave(m.Wave)
		c.confirms.Add(from)
		if !c.sentConfirm && c.confirms.HasKernel() {
			c.sentConfirm = true
			env.Broadcast(confirmMsg{Wave: m.Wave})
		}
		if !c.tReady && c.confirms.HasQuorum() {
			c.tReady = true
		}
	case coin.ShareMsg:
		if n.shared == nil {
			return
		}
		becameReady, _ := n.shared.Handle(env, from, msg)
		if becameReady {
			n.retryPendingWaves(env)
		}
	default:
		if !n.arb.Handle(env, from, msg) {
			return
		}
	}
	n.step(env)
}

// retryPendingWaves re-attempts commits that were blocked on the coin
// reveal, in wave order.
func (n *Node) retryPendingWaves(env sim.Env) {
	for w := n.decidedWave + 1; w <= rider.RoundWave(n.r); w++ {
		if n.pendingCoin[w] {
			delete(n.pendingCoin, w)
			n.waveReady(env, w)
		}
	}
}

// onVertex is the arb-deliver upcall (Algorithm 6 lines 137–143).
func (n *Node) onVertex(env sim.Env, slot broadcast.Slot, p broadcast.Payload) {
	vp, ok := p.(rider.VertexPayload)
	if !ok {
		return
	}
	// Authenticity and shape checks; a Byzantine creator's malformed
	// vertex is dropped here.
	v := vp.V
	strong, ok := rider.CheckVertex(v, slot, n.n)
	// Line 140: the strong edges must cover a quorum (of some process).
	if !ok || !quorum.HasAnyQuorumWithin(n.cfg.Trust, strong) {
		return
	}
	// The ACK is sent when the vertex enters the DAG, not here (see the
	// package comment); processBuffer handles it.
	n.buffer = append(n.buffer, v)
}

// processBuffer moves buffered vertices whose causal history is complete
// (and whose round is not ahead of the local round) into the DAG
// (Algorithm 4 lines 95–98); it returns true if any vertex was added.
func (n *Node) processBuffer(env sim.Env) bool {
	added := false
	for {
		progress := false
		keep := n.buffer[:0]
		for _, v := range n.buffer {
			if v.Round <= n.r && n.dag.HasAllParents(v) {
				if err := n.dag.Add(v); err == nil {
					progress = true
					added = true
					n.roundTracker(v.Round).Add(v.Source)
					n.maybeAck(env, v)
					continue
				}
			}
			keep = append(keep, v)
		}
		n.buffer = keep
		if !progress {
			return added
		}
	}
}

// maybeAck sends the gather ACK for round ≡ 2 (mod 4) vertices
// (Algorithm 6 lines 142–143).
func (n *Node) maybeAck(env sim.Env, v *dag.Vertex) {
	if v.Round%4 != 2 || n.acked[v.Ref()] {
		return
	}
	n.acked[v.Ref()] = true
	env.Send(v.Source, ackMsg{Wave: rider.RoundWave(v.Round)})
}

// step runs the Algorithm 4 main loop to a fixpoint: absorb buffered
// vertices, advance rounds while the advance conditions hold, fire wave
// commits at wave boundaries.
func (n *Node) step(env sim.Env) {
	for {
		n.processBuffer(env)
		if !n.roundTracker(n.r).HasQuorum() {
			return
		}
		// Round 2→3 gate: the wave's CONFIRM quorum must have been seen.
		if n.r%4 == 2 && !n.wave(rider.RoundWave(n.r)).tReady {
			return
		}
		if n.r%4 == 0 && n.r > 0 {
			// The wave is locally complete: release the coin share (the
			// revealed-coin discipline) and attempt the commit. When the
			// node has stopped at MaxRound this retries on every step, so
			// the final wave still commits once enough vertices arrive.
			if n.shared != nil {
				n.shared.Release(env, n.r/4)
			}
			n.waveReady(env, n.r/4)
		}
		if n.cfg.MaxRound > 0 && n.r >= n.cfg.MaxRound {
			return
		}
		// Pipeline bound: don't start proposing into a wave more than
		// PipelineDepth beyond the last decided one. The condition can
		// only become true at a wave boundary (r ≡ 0 mod 4, where the
		// waveReady retry above runs on every step), so a stalled node
		// keeps attempting the blocking commit until it lifts.
		if n.cfg.PipelineDepth > 0 && rider.RoundWave(n.r+1) > n.decidedWave+n.cfg.PipelineDepth {
			return
		}
		n.r++
		v := n.createVertex(n.r)
		n.arb.Broadcast(env, uint64(n.r), rider.NewVertexPayload(v))
		// Old waves' control state is no longer needed once the next wave
		// starts; drop it to bound memory.
		if w := rider.RoundWave(n.r); w >= 3 {
			delete(n.waves, w-2)
		}
	}
}

// createVertex builds this process's vertex for the given round
// (Algorithm 4, createNewVertex + setWeakEdges).
func (n *Node) createVertex(round int) *dag.Vertex {
	v := &dag.Vertex{Source: n.self, Round: round}
	if n.cfg.Workload != nil {
		v.Block = n.cfg.Workload.NextBlock(round)
	}
	prev := n.dag.RoundVertices(round - 1)
	v.StrongEdges = make([]dag.VertexRef, len(prev))
	for i, u := range prev {
		v.StrongEdges[i] = u.Ref()
	}
	rider.SetWeakEdges(n.dag, v, round)
	return v
}

// waveReady attempts to commit wave w (Algorithm 6 lines 146–157).
func (n *Node) waveReady(env sim.Env, w int) {
	if w <= n.decidedWave {
		return // already decided (possible when retrying at MaxRound)
	}
	if n.shared != nil && !n.shared.Ready(w) {
		// Coin not yet revealed: park the attempt; retryPendingWaves
		// resumes it when the shares arrive.
		n.pendingCoin[w] = true
		return
	}
	leader, ok := n.waveLeader(w)
	if !ok {
		return
	}
	reach := n.dag.StrongReachSources(rider.WaveRound(w, 4), leader)
	if !quorum.HasAnyQuorumWithin(n.cfg.Trust, reach) {
		return
	}
	// Commit: stack this leader and every earlier undecided leader
	// connected by strong paths.
	stack := []dag.VertexRef{leader}
	v := leader
	for wp := w - 1; wp > n.decidedWave; wp-- {
		u, ok := n.waveLeader(wp)
		if ok && n.dag.StrongPath(v, u) {
			stack = append(stack, u)
			v = u
		}
	}
	n.decidedWave = w
	ev := rider.CommitEvent{Wave: w, Leader: leader, Time: env.Now(), Round: n.r}
	ordered := rider.OrderVertices(n.dag, stack, n.delivered, w, env.Now())
	if n.cfg.DeliverySink != nil {
		for _, d := range ordered {
			n.cfg.DeliverySink(d)
		}
	} else {
		n.deliveries = append(n.deliveries, ordered...)
	}
	if n.cfg.CommitSink != nil {
		n.cfg.CommitSink(ev)
	} else {
		n.commits = append(n.commits, ev)
	}
	if n.cfg.GCDepth > 0 {
		n.collectGarbage(w)
	}
}

// collectGarbage prunes fully delivered rounds below the GC horizon and
// trims the bookkeeping maps to the watermark.
func (n *Node) collectGarbage(decided int) {
	limit := rider.WaveRound(decided, 1) - n.cfg.GCDepth
	if limit <= 0 {
		return
	}
	watermark := n.dag.PruneBelow(limit, func(v *dag.Vertex) bool {
		return n.delivered[v.Ref()]
	})
	for ref := range n.delivered {
		if ref.Round < watermark {
			delete(n.delivered, ref)
		}
	}
	for ref := range n.acked {
		if ref.Round < watermark {
			delete(n.acked, ref)
		}
	}
	for r := range n.roundSrc {
		if r < watermark {
			delete(n.roundSrc, r)
		}
	}
	keep := n.buffer[:0]
	for _, v := range n.buffer {
		if v.Round >= watermark {
			keep = append(keep, v)
		}
	}
	n.buffer = keep
	// The reliable-broadcast slot trackers, the revealed-coin share maps
	// and stale pending-coin entries are per-round/per-wave state too;
	// without pruning them a long-lived run grows without bound even
	// though the DAG itself stays flat.
	n.arb.PruneBelow(uint64(watermark))
	if n.shared != nil {
		n.shared.PruneBelow(decided)
	}
	for w := range n.pendingCoin {
		if w <= n.decidedWave {
			delete(n.pendingCoin, w)
		}
	}
}

// waveLeader returns the coin-elected leader vertex of wave w, if present
// in the local DAG (Algorithm 6, getWaveVertexLeader).
func (n *Node) waveLeader(w int) (dag.VertexRef, bool) {
	var p types.ProcessID
	if n.shared != nil {
		var ok bool
		if p, ok = n.shared.Leader(w); !ok {
			return dag.VertexRef{}, false // reveal pending; waveReady guards this
		}
	} else {
		p = n.cfg.Coin.Leader(w)
	}
	ref := dag.VertexRef{Source: p, Round: rider.WaveRound(w, 1)}
	if !n.dag.Contains(ref) {
		return dag.VertexRef{}, false
	}
	return ref, true
}

// Accessors for experiments and tests. ----------------------------------

// Round returns the node's current round.
func (n *Node) Round() int { return n.r }

// DecidedWave returns the last committed wave.
func (n *Node) DecidedWave() int { return n.decidedWave }

// Deliveries returns the atomically delivered vertices in delivery order.
func (n *Node) Deliveries() []rider.Delivery { return n.deliveries }

// Commits returns the node's successful wave commits in order.
func (n *Node) Commits() []rider.CommitEvent { return n.commits }

// DeliveredBlocks flattens the delivered transactions in delivery order.
func (n *Node) DeliveredBlocks() []string {
	var out []string
	for _, d := range n.deliveries {
		out = append(out, d.Txs...)
	}
	return out
}

// DAG exposes the local DAG for invariant checks in tests.
func (n *Node) DAG() *dag.DAG { return n.dag }

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
	PendingPairs   int // delivered-set + acked-set entries ("pending pairs")
}

// Live returns the node's current live-state counters.
func (n *Node) Live() LiveStats {
	return LiveStats{
		DAGVertices:    n.dag.VertexCount(),
		DAGRounds:      n.dag.Height() - n.dag.PrunedBelow(),
		BroadcastSlots: n.arb.SlotCount(),
		Buffered:       len(n.buffer),
		RoundTrackers:  len(n.roundSrc),
		WaveCtls:       len(n.waves),
		PendingPairs:   len(n.delivered) + len(n.acked),
	}
}

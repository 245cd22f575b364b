package rider

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/dag"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// Setup is what the skeleton runs under, handed to Start by a node kind.
type Setup struct {
	// Trust is the quorum assumption behind reliable broadcast, vertex
	// validity and round advance. Its size must match the cluster's.
	Trust quorum.Assumption
	// Workload supplies the blocks this node proposes; nil means empty
	// blocks.
	Workload Workload
	// MaxRound stops vertex creation beyond this round so runs quiesce; 0
	// means unbounded.
	MaxRound int
	// DeliverySink and CommitSink, when non-nil, receive each delivered
	// vertex and each wave commit instead of Deliveries() and Commits()
	// accumulating them. For one commit every delivery comes first, then
	// the commit event.
	DeliverySink func(Delivery)
	CommitSink   func(CommitEvent)
}

// Rules is a node kind's own part of the protocol, which Base calls at
// fixed points of its loop.
type Rules interface {
	// Leader returns wave w's elected leader, or false while the coin is
	// not yet revealed.
	Leader(w int) (types.ProcessID, bool)
	// Commits is the commit rule: whether a wave's leader commits, given
	// the sources of the round-4 vertices with strong paths to it.
	Commits(reach types.Set) bool
	// Inserted runs once for each vertex absorbed from the buffer into the
	// DAG, which refuses a second vertex for a (round, source).
	Inserted(env sim.Env, v *dag.Vertex)
	// Advance reports whether the node may leave round r, whose sources
	// already hold a quorum.
	Advance(r int) bool
	// WaveDone runs each time the loop passes round 4w with a quorum; it
	// is where the kind attempts Base.Commit.
	WaveDone(env sim.Env, w int)
	// Propose reports whether the node may create its round-r vertex. It
	// runs after the MaxRound stop.
	Propose(r int) bool
}

// Base is the DAG-Rider skeleton (Algorithms 4 and 6) that both node kinds
// embed: the DAG from genesis, reliable broadcast of vertices, the validity
// check, buffer absorption, round advance, vertex creation, and the leader
// stack with ordering. Its accessors are promoted through the embedding.
type Base struct {
	setup Setup
	rules Rules
	self  types.ProcessID
	n     int

	arb *broadcast.Reliable
	dag *dag.DAG

	r      int
	buffer []*dag.Vertex
	// rounds holds each live round's state over the DAG's window: Prune
	// drops both at the same watermark.
	rounds dag.Rows[roundState]
	// strong is onVertex's scratch set: the strong-edge sources of the
	// vertex being checked. edges is createVertex's scratch, and slab the
	// unused rest of the array its edge lists are cut from.
	strong types.Set
	edges  []dag.VertexRef
	slab   []dag.VertexRef

	decidedWave int
	// ordered is Commit's scratch: the deliveries of the commit in progress.
	ordered []Delivery

	// deliveries and commits fill only while Setup's DeliverySink and
	// CommitSink are nil; long-lived runs set both.
	deliveries []Delivery
	commits    []CommitEvent
}

// roundState is the skeleton's state for one round: sources tracks the
// quorum predicate over the sources with a vertex in the local DAG, fed on
// insertion, so the advance rule is an O(1) read instead of a rescan of the
// round; delivered holds the sources whose vertex was delivered.
type roundState struct {
	sources   *quorum.Tracker
	delivered types.Set
}

// reset empties the round's state for reuse.
func (s *roundState) reset() {
	s.sources.Reset()
	s.delivered.Clear()
}

// Start sets the skeleton up, inserts genesis and runs the loop; a node
// kind's Init calls it once.
func (b *Base) Start(env sim.Env, setup Setup, rules Rules) {
	if setup.Trust.N() != env.N() {
		panic(fmt.Sprintf("rider: trust assumption over %d processes in a cluster of %d", setup.Trust.N(), env.N()))
	}
	b.setup, b.rules = setup, rules
	b.self, b.n = env.Self(), env.N()
	b.dag = dag.New(b.n)
	b.rounds = dag.NewRows(b.n, func(n, k int) []roundState {
		sources, delivered := quorum.NewTrackers(setup.Trust, b.self, k), types.NewSets(n, k)
		rs := make([]roundState, k)
		for i := range rs {
			rs[i] = roundState{sources: &sources[i], delivered: delivered[i]}
		}
		return rs
	}, (*roundState).reset)
	b.strong = types.NewSet(b.n)
	b.edges = make([]dag.VertexRef, 0, 2*b.n)
	for _, g := range Genesis(b.n) {
		if err := b.dag.Add(g); err != nil {
			panic("rider: genesis insertion failed: " + err.Error())
		}
		b.tracker(g.Round).Add(g.Source)
	}
	b.arb = broadcast.NewReliable(b.self, setup.Trust, b.onVertex)
	b.Step(env)
}

// Receive implements sim.Node for a kind with no messages of its own:
// reliable-broadcast traffic, then the loop.
func (b *Base) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if b.arb.Handle(env, from, msg) {
		b.Step(env)
	}
}

// tracker returns round r's source tracker, growing the window to r.
func (b *Base) tracker(r int) *quorum.Tracker { return b.rounds.Grow(r).sources }

// delivered reports whether v, a vertex of the DAG's window, was delivered.
func (b *Base) delivered(v *dag.Vertex) bool {
	return b.rounds.At(v.Round).delivered.Contains(v.Source)
}

// deliver marks v, a vertex of the DAG's window, delivered.
func (b *Base) deliver(v *dag.Vertex) { b.rounds.At(v.Round).delivered.Add(v.Source) }

// onVertex is the arb-deliver upcall (Algorithm 6 lines 137–143). A
// Byzantine creator's malformed vertex is dropped here.
func (b *Base) onVertex(_ sim.Env, slot broadcast.Slot, p broadcast.Payload) {
	vp, ok := p.(VertexPayload)
	if !ok {
		return
	}
	// Line 140: the strong edges must cover a quorum of some process.
	// Under a threshold this is DAG-Rider's n−f strong edges.
	if !CheckVertex(vp.V, slot, &b.strong) || !b.setup.Trust.HasAnyQuorumWithin(b.strong) {
		return
	}
	b.buffer = append(b.buffer, vp.V)
}

// absorb moves buffered vertices whose causal history is complete, and
// whose round is not ahead of the local round, into the DAG (Algorithm 4
// lines 95–98).
func (b *Base) absorb(env sim.Env) {
	for {
		progress := false
		keep := b.buffer[:0]
		for _, v := range b.buffer {
			if v.Round <= b.r && b.dag.HasAllParents(v) {
				if err := b.dag.Add(v); err == nil {
					progress = true
					b.tracker(v.Round).Add(v.Source)
					b.rules.Inserted(env, v)
					continue
				}
			}
			keep = append(keep, v)
		}
		b.buffer = keep
		if !progress {
			return
		}
	}
}

// Step runs the Algorithm 4 main loop to a fixpoint: absorb buffered
// vertices; while the current round's sources hold a quorum and Advance
// allows, pass the wave boundary, then create and broadcast the next
// round's vertex.
func (b *Base) Step(env sim.Env) {
	for {
		b.absorb(env)
		if !b.tracker(b.r).HasQuorum() || !b.rules.Advance(b.r) {
			return
		}
		if b.r%4 == 0 && b.r > 0 {
			// The wave is locally complete. A node stopped at MaxRound
			// retries this on every step, so the final wave still commits
			// once enough vertices arrive.
			b.rules.WaveDone(env, b.r/4)
		}
		if b.setup.MaxRound > 0 && b.r >= b.setup.MaxRound || !b.rules.Propose(b.r+1) {
			return
		}
		b.r++
		b.arb.Broadcast(env, uint64(b.r), NewVertexPayload(b.createVertex(b.r)))
	}
}

// edgeSlab is how many vertices' edge lists, at 2n edges each, one slab
// holds.
const edgeSlab = 16

// createVertex builds this process's vertex for the given round
// (Algorithm 4, createNewVertex + setWeakEdges). Both edge lists are
// gathered in the edges scratch and copied out into one slice cut from the
// slab, so a vertex costs one allocation: itself. The slab holds only
// refs, so whatever part of it a pruned vertex still pins references no
// block.
func (b *Base) createVertex(round int) *dag.Vertex {
	v := &dag.Vertex{Source: b.self, Round: round}
	if b.setup.Workload != nil {
		v.Block = b.setup.Workload.NextBlock(round)
	}
	b.edges = b.dag.AppendRoundRefs(b.edges[:0], round-1)
	strong := len(b.edges)
	b.edges = appendWeakEdges(b.dag, b.edges, b.edges[:strong], round)
	k := len(b.edges)
	if len(b.slab) < k {
		b.slab = make([]dag.VertexRef, max(k, edgeSlab*2*b.n))
	}
	edges := b.slab[:k:k]
	b.slab = b.slab[k:]
	copy(edges, b.edges)
	v.StrongEdges = edges[:strong:strong]
	if len(edges) > strong {
		v.WeakEdges = edges[strong:]
	}
	return v
}

// Commit attempts to commit wave w (Algorithm 6 lines 146–157). The
// wave's leader vertex must be in the DAG and the commit rule must accept
// the sources that strongly reach it from round 4. Every earlier
// undecided leader connected by strong paths is stacked under it, and the
// stack's causal histories are delivered oldest wave first. It reports
// whether w committed.
func (b *Base) Commit(env sim.Env, w int) bool {
	if w <= b.decidedWave {
		return false // already decided (possible when retrying at MaxRound)
	}
	leader, ok := b.waveLeader(w)
	if !ok || !b.rules.Commits(b.dag.StrongReachSources(WaveRound(w, 4), leader)) {
		return false
	}
	stack := []dag.VertexRef{leader}
	v := leader
	for wp := w - 1; wp > b.decidedWave; wp-- {
		u, ok := b.waveLeader(wp)
		if ok && b.dag.StrongPath(v, u) {
			stack = append(stack, u)
			v = u
		}
	}
	b.decidedWave = w
	ev := CommitEvent{Wave: w, Leader: leader, Time: env.Now(), Round: b.r}
	b.ordered = appendOrdered(b.ordered[:0], b.dag, stack, b.delivered, b.deliver, w, env.Now())
	if b.setup.DeliverySink != nil {
		for _, d := range b.ordered {
			b.setup.DeliverySink(d)
		}
	} else {
		b.deliveries = append(b.deliveries, b.ordered...)
	}
	// A reused entry would pin its block after the DAG prunes the vertex.
	clear(b.ordered)
	if b.setup.CommitSink != nil {
		b.setup.CommitSink(ev)
	} else {
		b.commits = append(b.commits, ev)
	}
	return true
}

// waveLeader returns the elected leader vertex of wave w, if present in
// the local DAG (Algorithm 6, getWaveVertexLeader).
func (b *Base) waveLeader(w int) (dag.VertexRef, bool) {
	p, ok := b.rules.Leader(w)
	if !ok {
		return dag.VertexRef{}, false
	}
	ref := dag.VertexRef{Source: p, Round: WaveRound(w, 1)}
	return ref, b.dag.Contains(ref)
}

// Prune drops the rounds below limit whose vertices were all delivered,
// and the skeleton's per-round state below the resulting watermark:
// delivery marks, source trackers, buffered vertices and broadcast slots.
func (b *Base) Prune(limit int) {
	watermark := b.dag.PruneBelow(limit, b.delivered)
	b.rounds.DropBelow(watermark)
	keep := b.buffer[:0]
	for _, v := range b.buffer {
		if v.Round >= watermark {
			keep = append(keep, v)
		}
	}
	b.buffer = keep
	b.arb.PruneBelow(uint64(watermark))
}

// Backlog returns the sizes of the skeleton's per-round state: broadcast
// slots, buffered vertices, round source trackers and delivery marks.
func (b *Base) Backlog() (slots, buffered, trackers, delivered int) {
	for r := b.rounds.Base(); r < b.rounds.End(); r++ {
		delivered += b.rounds.At(r).delivered.Count()
	}
	return b.arb.SlotCount(), len(b.buffer), b.rounds.End() - b.rounds.Base(), delivered
}

// HeldReadies returns how many READYs by reference the node's reliable
// broadcast has held for their voter's ECHO, and how many still wait.
func (b *Base) HeldReadies() (held, waiting int) { return b.arb.Held(), b.arb.Waiting() }

// Round returns the node's current round.
func (b *Base) Round() int { return b.r }

// DecidedWave returns the last committed wave.
func (b *Base) DecidedWave() int { return b.decidedWave }

// Deliveries returns the atomically delivered vertices in delivery order.
func (b *Base) Deliveries() []Delivery { return b.deliveries }

// Commits returns the node's successful wave commits in order.
func (b *Base) Commits() []CommitEvent { return b.commits }

// DeliveredBlocks flattens the delivered transactions in delivery order.
func (b *Base) DeliveredBlocks() []string {
	var out []string
	for _, d := range b.deliveries {
		out = append(out, d.Txs...)
	}
	return out
}

// DAG exposes the local DAG for invariant checks in tests.
func (b *Base) DAG() *dag.DAG { return b.dag }

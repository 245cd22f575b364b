// Package rider is the DAG-Rider skeleton that both consensus protocols
// run: the symmetric baseline in internal/baseline and the paper's
// asymmetric protocol in internal/core. Base (node.go) owns the local DAG
// from genesis, reliable broadcast of vertices, the vertex validity rule
// (strong edges that cover a quorum), buffer absorption, round advance on
// a quorum of a round's sources, vertex creation, and the commit path: the
// leader stack, ordering (Algorithm 6, orderVertices) and delivery. A
// node kind embeds Base and supplies its own Rules, its commit rule and
// the hooks where its additions apply. The package also holds the vertex
// wire payload, workload generation, delivery records and the DAG
// queries the skeleton runs on.
package rider

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/broadcast"
	"repro/internal/dag"
	"repro/internal/sim"
	"repro/internal/types"
)

// VertexPayload wraps a DAG vertex for transport through a broadcast
// primitive. It holds only the vertex pointer, so an interface holds it
// without boxing. Its digest covers the whole vertex — source, round, block
// and both edge lists — so reliable broadcast's equivocation detection
// covers vertex bodies. The digest lives in the vertex: package dag seals
// it there from the vertex's content, when NewVertexPayload wraps a new
// vertex and when the wire decoder builds one, and nothing else can store
// one. The literal VertexPayload{V: v} stays valid: around an unsealed
// vertex its Digest hashes on every call and writes nothing.
type VertexPayload struct {
	V *dag.Vertex
}

var _ broadcast.Payload = VertexPayload{}

// NewVertexPayload seals v's digest, once, for every process that will
// handle the payload, and wraps v. v must not change after.
func NewVertexPayload(v *dag.Vertex) VertexPayload {
	v.Seal()
	return VertexPayload{V: v}
}

// Digest implements broadcast.Payload: the SHA-256 of the payload's
// canonical wire frame. A payload without a vertex is not encodable and
// has the zero digest.
func (p VertexPayload) Digest() broadcast.Digest {
	if p.V == nil {
		return broadcast.Digest{}
	}
	return p.V.Digest()
}

// keyBufPool recycles the scratch buffers Key builds its string in, so
// only the returned string allocates.
var keyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// appendEdgeRefs appends one "<tag><source>.<round>," segment per edge.
func appendEdgeRefs(b []byte, tag byte, edges []dag.VertexRef) []byte {
	for _, e := range edges {
		b = append(b, tag)
		b = strconv.AppendInt(b, int64(e.Source), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(e.Round), 10)
		b = append(b, ',')
	}
	return b
}

// Key serialises the vertex content into a string. Called only by
// bench/layers.go; goes with rider.payload_key_ns in a benchmark PR.
func (p VertexPayload) Key() string {
	bp := keyBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = strconv.AppendInt(b, int64(p.V.Source), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(p.V.Round), 10)
	b = append(b, '|')
	for _, tx := range p.V.Block {
		b = append(b, tx...)
		b = append(b, 0)
	}
	b = append(b, '|')
	b = appendEdgeRefs(b, 's', p.V.StrongEdges)
	b = appendEdgeRefs(b, 'w', p.V.WeakEdges)
	key := string(b)
	*bp = b
	keyBufPool.Put(bp)
	return key
}

// Workload supplies the transactions a process packs into each vertex
// (the paper's blocksToPropose queue fed by clients).
type Workload interface {
	// NextBlock returns the block for the vertex of the given round.
	NextBlock(round int) []string
}

// SyntheticWorkload generates TxPerBlock labeled transactions per block —
// the workload generator for throughput experiments.
type SyntheticWorkload struct {
	Self       types.ProcessID
	TxPerBlock int
}

// NextBlock implements Workload.
func (w SyntheticWorkload) NextBlock(round int) []string {
	block := make([]string, w.TxPerBlock)
	for i := range block {
		block[i] = fmt.Sprintf("tx-p%d-r%d-%d", int(w.Self)+1, round, i)
	}
	return block
}

// QueueWorkload drains an explicit queue, at most BatchSize per block;
// examples use it to submit real payloads. Empty blocks are produced when
// the queue is dry so that the protocol keeps advancing rounds.
type QueueWorkload struct {
	BatchSize int
	queue     []string
}

// Submit appends transactions to the queue.
func (w *QueueWorkload) Submit(txs ...string) {
	w.queue = append(w.queue, txs...)
}

// Len returns the number of queued, not-yet-proposed transactions — the
// service layer's admission control reads it to bound the queue.
func (w *QueueWorkload) Len() int { return len(w.queue) }

// NextBlock implements Workload.
func (w *QueueWorkload) NextBlock(int) []string {
	n := w.BatchSize
	if n <= 0 {
		n = 16
	}
	if n > len(w.queue) {
		n = len(w.queue)
	}
	block := w.queue[:n:n]
	w.queue = w.queue[n:]
	return block
}

// Delivery records one atomically delivered vertex.
type Delivery struct {
	Ref  dag.VertexRef
	Txs  []string
	Wave int             // wave whose commit triggered the delivery
	Time sim.VirtualTime // virtual time of delivery
}

// CommitEvent records one successful wave commit at a process.
type CommitEvent struct {
	Wave   int
	Leader dag.VertexRef
	Time   sim.VirtualTime
	Round  int // the process's round when it committed
}

// WaveRound returns the absolute round of slot k (1..4) of wave w (waves
// count from 1): round(w,k) = 4(w-1)+k.
func WaveRound(w, k int) int { return 4*(w-1) + k }

// RoundWave returns the wave that round r belongs to (rounds 1..4 are wave
// 1). Round 0 (genesis) maps to wave 0.
func RoundWave(r int) int {
	if r <= 0 {
		return 0
	}
	return (r + 3) / 4
}

// Genesis returns the round-0 vertices a process starts its DAG with: one
// per process, new on every call, cut from one allocation. Algorithm 4
// line 67 hardcodes the vertices of a quorum; all n contain a quorum of
// every process.
func Genesis(n int) []*dag.Vertex {
	vs := make([]dag.Vertex, n)
	out := make([]*dag.Vertex, n)
	for i := range out {
		vs[i].Source = types.ProcessID(i)
		out[i] = &vs[i]
	}
	return out
}

// CheckVertex reports whether v, delivered by reliable broadcast in slot,
// has the shape a correct creator gives it in a system of n =
// strong.UniverseSize() processes. If it has, CheckVertex overwrites strong
// with the sources of v's strong edges, which the caller's validity rule
// weighs; the caller owns strong and reuses it across vertices, so a check
// allocates nothing. A correct vertex
//   - is the slot sender's vertex for the slot's round, round ≥ 1;
//   - has edges that name sources in [0, n), strong edges into round−1
//     and weak edges into rounds 0..round−2;
//   - lists its edges in the order createVertex and SetWeakEdges write
//     them: strong edges by ascending source, then weak edges by
//     descending round and ascending source within a round. The order
//     makes a repeated ref adjacent, so one pass rejects duplicates.
//
// A vertex that fails is dropped: its edges come off the wire, and a
// source outside [0, n) would index past the DAG's rows. A decoded vertex
// meets the strong-edge rule but for the bound n by construction, since
// the wire names strong edges as a bitmap over round−1 (dag/wire.go); the
// rule still guards the vertices handed over in process, as the
// simulator does without the codec.
func CheckVertex(v *dag.Vertex, slot broadcast.Slot, strong *types.Set) bool {
	n := strong.UniverseSize()
	if v.Source != slot.Src || v.Round != int(slot.Seq) || v.Round < 1 || v.Source < 0 || int(v.Source) >= n ||
		!edgesInOrder(v.StrongEdges, v.Round-1, v.Round-1, n) || !edgesInOrder(v.WeakEdges, 0, v.Round-2, n) {
		return false
	}
	strong.Clear()
	for _, e := range v.StrongEdges {
		strong.Add(e.Source)
	}
	return true
}

// edgesInOrder reports whether every edge names a source in [0, n) and a
// round in [lo, hi], and each edge comes strictly after the one before:
// in a lower round, or in the same round with a higher source.
func edgesInOrder(edges []dag.VertexRef, lo, hi, n int) bool {
	for i, e := range edges {
		if e.Round < lo || e.Round > hi || e.Source < 0 || int(e.Source) >= n {
			return false
		}
		if i > 0 {
			if p := edges[i-1]; p.Round < e.Round || (p.Round == e.Round && p.Source >= e.Source) {
				return false
			}
		}
	}
	return true
}

// SetWeakEdges fills v.WeakEdges with references to every vertex in rounds
// round-2 .. 1 not already reachable from v (Algorithm 4, setWeakEdges).
// The running reachable set includes the causal closure of edges added so
// far, so no redundant weak edges are produced.
func SetWeakEdges(d *dag.DAG, v *dag.Vertex, round int) {
	v.WeakEdges = appendWeakEdges(d, v.WeakEdges, v.StrongEdges, round)
}

// appendWeakEdges appends to dst the weak edges SetWeakEdges gives a
// vertex of the given round with the given strong edges.
func appendWeakEdges(d *dag.DAG, dst, strong []dag.VertexRef, round int) []dag.VertexRef {
	// Rounds below the GC watermark hold no vertices; stopping there keeps
	// vertex creation O(live window) in a long-lived run instead of
	// scanning every round since genesis. The cut is sound for receivers
	// too: pruned vertices were already delivered locally, and the edges a
	// vertex carries are fixed by its creator before broadcast.
	low := max(d.PrunedBelow(), 1)
	d.Uncovered(strong, round-2, low, func(u *dag.Vertex) {
		dst = append(dst, u.Ref())
	})
	return dst
}

// OrderVertices implements Algorithm 6's orderVertices. leaders is the
// stack of committed leaders, newest wave first, so it is popped from the
// end: oldest wave first. For each leader it delivers the yet-undelivered
// part of its causal history in the deterministic (round, source) order.
// The history walk does not descend below vertices already in delivered,
// which is sound because deliveries are whole causal histories: whatever
// a delivered vertex reaches is delivered too. It returns the new
// deliveries in order.
func OrderVertices(d *dag.DAG, leaders []dag.VertexRef, delivered map[dag.VertexRef]bool, wave int, now sim.VirtualTime) []Delivery {
	return appendOrdered(nil, d, leaders, func(v *dag.Vertex) bool { return delivered[v.Ref()] },
		func(v *dag.Vertex) { delivered[v.Ref()] = true }, wave, now)
}

// appendOrdered is OrderVertices over any record of the delivered
// vertices, which delivered reads and deliver extends; it appends the new
// deliveries to out.
func appendOrdered(out []Delivery, d *dag.DAG, leaders []dag.VertexRef, delivered func(*dag.Vertex) bool,
	deliver func(*dag.Vertex), wave int, now sim.VirtualTime) []Delivery {
	for i := len(leaders) - 1; i >= 0; i-- {
		d.History(leaders[i], delivered, func(v *dag.Vertex) {
			deliver(v)
			out = append(out, Delivery{Ref: v.Ref(), Txs: v.Block, Wave: wave, Time: now})
		})
	}
	return out
}

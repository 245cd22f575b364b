// Package dag implements the round-structured directed acyclic graph that
// underlies DAG-Rider-style consensus (paper §4.1).
//
// Vertices are identified by (source, round): reliable broadcast guarantees
// that correct processes deliver at most one vertex per source per round,
// so no digests are needed for identity; the digest a vertex carries
// (wire.go) is the content address reliable broadcast votes on. Strong
// edges point to vertices of the previous round; weak edges point to older
// vertices not already reachable, which is how the protocol guarantees
// eventual delivery of every broadcast block (validity).
//
// Storage is dense: each round is an n-slot row indexed by source plus the
// set of sources present, so a round's vertices come out in source order
// without sorting. Reachability queries mark vertices in per-round bitset
// rows instead of a visited map. Every edge points to an earlier round
// (Add enforces it), so most queries are one sweep over the rounds in one
// direction; StrongPath walks depth-first and uses the rows as its visited
// set. The rows live in a scratch buffer the DAG reuses across queries, so
// queries allocate nothing beyond their results, and a DAG is not safe for
// concurrent use, not even by readers.
package dag

import (
	"fmt"
	"math/bits"

	"repro/internal/types"
)

// VertexRef identifies a vertex.
type VertexRef struct {
	Source types.ProcessID
	Round  int
}

// String implements fmt.Stringer.
func (r VertexRef) String() string { return fmt.Sprintf("%v@r%d", r.Source, r.Round) }

// Vertex is one node of the DAG: a block of transactions plus references.
//
// A vertex also carries its digest, the content address reliable
// broadcast votes on (wire.go). The digest lives in an unexported field
// that only Seal and DecodeWire fill, both from the vertex's own content;
// no other code can store one. A sealed vertex must not change.
type Vertex struct {
	Source      types.ProcessID
	Round       int
	Block       []string // transactions carried by this vertex
	StrongEdges []VertexRef
	WeakEdges   []VertexRef

	sum Digest // zero until sealed
}

// Ref returns the vertex's identity.
func (v *Vertex) Ref() VertexRef { return VertexRef{Source: v.Source, Round: v.Round} }

// row is one round: verts[s] is source s's vertex or nil, and srcs holds
// the sources whose slot is filled.
type row struct {
	verts []*Vertex
	srcs  types.Set
}

// DAG is one process's local copy of the graph. The zero value is not
// usable; call New.
//
// Round storage is a Rows window: pruning drops rounds from its front and
// keeps their rows, cleared, for the rounds to come. This is what makes GC
// bound memory over an unbounded service run — the storage tracks the live
// round window, not the number of rounds that have passed, and once the
// window has reached its size a new round allocates nothing.
type DAG struct {
	n      int
	rounds Rows[row] // rounds below rounds.Base() are pruned

	// marks is the queries' scratch: words bitset words per live round,
	// round base+i at marks[i*words:]. Each query clears the rows it reads
	// before it marks them. It is allocated on the first query and grows
	// with the window.
	marks []uint64
	words int
	stack []VertexRef // StrongPath's scratch: refs waiting to be expanded
	reach types.Set   // StrongReachSources' result: allocated on first use, then reused
}

// New creates an empty DAG for n processes.
func New(n int) *DAG {
	return &DAG{n: n, rounds: NewRows(n, newRows, (*row).reset), words: (n + 63) / 64}
}

// newRows returns k empty rounds of n slots, their slots cut from one
// array and their source sets from one more.
func newRows(n, k int) []row {
	verts := make([]*Vertex, k*n)
	srcs := types.NewSets(n, k)
	rows := make([]row, k)
	for i := range rows {
		rows[i] = row{verts: verts[i*n : (i+1)*n : (i+1)*n], srcs: srcs[i]}
	}
	return rows
}

// reset empties the round for reuse.
func (rw *row) reset() {
	clear(rw.verts)
	rw.srcs.Clear()
}

// rowAt returns round r's storage, or nil when r is pruned or beyond the
// allocated window.
func (d *DAG) rowAt(r int) *row { return d.rounds.At(r) }

// base returns the lowest retained round.
func (d *DAG) base() int { return d.rounds.Base() }

// Add inserts v. It returns an error if v's source is outside [0, n), if
// a different vertex from the same source already occupies the round
// (reliable broadcast should prevent this), if an edge does not point to
// an earlier round, or if any referenced parent is absent (callers must
// buffer until the causal history is complete, Algorithm 4 line 96).
func (d *DAG) Add(v *Vertex) error {
	if v.Round < 0 {
		return fmt.Errorf("dag: negative round %d", v.Round)
	}
	if v.Source < 0 || int(v.Source) >= d.n {
		return fmt.Errorf("dag: source %d of %v outside [0, %d)", int(v.Source), v.Ref(), d.n)
	}
	if v.Round < d.base() {
		return fmt.Errorf("dag: round %d already pruned (watermark %d)", v.Round, d.base())
	}
	for _, edges := range [2][]VertexRef{v.StrongEdges, v.WeakEdges} {
		for _, ref := range edges {
			if ref.Round >= v.Round {
				return fmt.Errorf("dag: edge %v of %v does not point to an earlier round", ref, v.Ref())
			}
			if !d.Contains(ref) {
				return fmt.Errorf("dag: missing parent %v of %v", ref, v.Ref())
			}
		}
	}
	slot := d.rounds.Grow(v.Round)
	if old := slot.verts[v.Source]; old != nil && old != v {
		return fmt.Errorf("dag: duplicate vertex for %v", v.Ref())
	}
	slot.verts[v.Source] = v
	slot.srcs.Add(v.Source)
	return nil
}

// Get returns the vertex with the given identity.
func (d *DAG) Get(ref VertexRef) (*Vertex, bool) {
	rw := d.rowAt(ref.Round)
	if rw == nil || ref.Source < 0 || int(ref.Source) >= d.n {
		return nil, false
	}
	v := rw.verts[ref.Source]
	return v, v != nil
}

// Contains reports whether ref is present.
func (d *DAG) Contains(ref VertexRef) bool {
	_, ok := d.Get(ref)
	return ok
}

// HasAllParents reports whether every vertex referenced by v is present —
// the insertion precondition of Algorithm 4 line 96.
func (d *DAG) HasAllParents(v *Vertex) bool {
	for _, edges := range [2][]VertexRef{v.StrongEdges, v.WeakEdges} {
		for _, ref := range edges {
			if !d.Contains(ref) {
				return false
			}
		}
	}
	return true
}

// RoundVertices returns the vertices of round r sorted by source (a
// deterministic order shared by all processes).
func (d *DAG) RoundVertices(r int) []*Vertex {
	rw := d.rowAt(r)
	if rw == nil || rw.srcs.IsEmpty() {
		return nil
	}
	out := make([]*Vertex, 0, rw.srcs.Count())
	for _, v := range rw.verts {
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// AppendRoundRefs appends to dst the refs of round r's vertices in
// RoundVertices' order: the strong edges of a vertex of round r+1.
func (d *DAG) AppendRoundRefs(dst []VertexRef, r int) []VertexRef {
	rw := d.rowAt(r)
	if rw == nil {
		return dst
	}
	for _, v := range rw.verts {
		if v != nil {
			dst = append(dst, v.Ref())
		}
	}
	return dst
}

// Height returns one past the highest round with storage allocated.
func (d *DAG) Height() int { return d.rounds.End() }

// VertexCount returns the total number of vertices.
func (d *DAG) VertexCount() int {
	total := 0
	for r := d.base(); r < d.Height(); r++ {
		total += d.rowAt(r).srcs.Count()
	}
	return total
}

// Scratch rows. -----------------------------------------------------------

// clearMarks zeroes the scratch rows of rounds lo..hi, which must lie in
// the window, growing the scratch to the window first.
func (d *DAG) clearMarks(lo, hi int) {
	if need := (d.Height() - d.base()) * d.words; len(d.marks) < need {
		if cap(d.marks) < need {
			d.marks = make([]uint64, need, 2*need)
		}
		d.marks = d.marks[:need]
	}
	clear(d.marks[(lo-d.base())*d.words : (hi-d.base()+1)*d.words])
}

// markRow returns round r's scratch row; r must lie in the window.
func (d *DAG) markRow(r int) []uint64 {
	i := (r - d.base()) * d.words
	return d.marks[i : i+d.words]
}

// inWindow reports whether ref names a slot of the live window.
func (d *DAG) inWindow(ref VertexRef) bool {
	return ref.Round >= d.base() && ref.Round < d.Height() && ref.Source >= 0 && int(ref.Source) < d.n
}

// mark sets ref's scratch bit; ref must be in the window.
func (d *DAG) mark(ref VertexRef) {
	d.marks[(ref.Round-d.base())*d.words+int(ref.Source)/64] |= 1 << (uint(ref.Source) % 64)
}

// marked reports ref's scratch bit; ref must be in the window, and the bit
// means something only in a round the current query cleared.
func (d *DAG) marked(ref VertexRef) bool {
	return d.marks[(ref.Round-d.base())*d.words+int(ref.Source)/64]&(1<<(uint(ref.Source)%64)) != 0
}

// markEdges marks the edges of a vertex in the DAG and returns the lowest
// of low and their rounds. Add checked those edges, so the only ones
// outside the window point below it, into pruned rounds, and are skipped.
func (d *DAG) markEdges(edges []VertexRef, low int) int {
	for _, ref := range edges {
		if ref.Round >= d.base() {
			d.mark(ref)
		}
		low = min(low, ref.Round)
	}
	return low
}

// markParents marks v's parents and returns the lowest round among them
// (v.Round when it has none).
func (d *DAG) markParents(v *Vertex) int {
	return d.markEdges(v.WeakEdges, d.markEdges(v.StrongEdges, v.Round))
}

// forMarked calls fn, in source order, on each vertex of round r whose
// scratch bit is set. fn may change the bits of round r.
func (d *DAG) forMarked(r int, fn func(*Vertex)) {
	rw, m := d.rowAt(r), d.markRow(r)
	for wi, w := range rw.srcs.Words() {
		for w &= m[wi]; w != 0; w &= w - 1 {
			fn(rw.verts[wi*64+bits.TrailingZeros64(w)])
		}
	}
}

// Queries. ----------------------------------------------------------------

// StrongPath reports whether there is a path from `from` to `to` using
// only strong edges. Paths go backwards in rounds; from.Round must be
// greater than to.Round (equal refs return true). The walk is depth-first,
// so where paths abound (a round-4 vertex to its wave's leader) it ends
// after a few vertices; the scratch rows of rounds above to's mark the
// vertices already pushed, so none is expanded twice.
func (d *DAG) StrongPath(from, to VertexRef) bool {
	if from == to {
		return true
	}
	if from.Round <= to.Round || !d.Contains(from) {
		return false
	}
	lo := max(to.Round+1, d.base())
	d.clearMarks(lo, from.Round)
	d.stack = append(d.stack[:0], from)
	for len(d.stack) > 0 {
		v, _ := d.Get(d.stack[len(d.stack)-1])
		d.stack = d.stack[:len(d.stack)-1]
		for _, ref := range v.StrongEdges {
			if ref == to {
				return true
			}
			if ref.Round >= lo && !d.marked(ref) {
				d.mark(ref)
				d.stack = append(d.stack, ref)
			}
		}
	}
	return false
}

// StrongReachSources returns the set of sources of round-r vertices with a
// strong path to target (used by commit rules). The sweep runs up from
// target's round: a vertex is reached when one of its strong edges is
// target or a reached vertex. The set is the DAG's scratch, so the call
// allocates nothing: it is valid until the next StrongReachSources.
func (d *DAG) StrongReachSources(r int, target VertexRef) types.Set {
	if d.reach.UniverseSize() != d.n {
		d.reach = types.NewSet(d.n)
	}
	s := d.reach
	s.Clear()
	if r == target.Round && d.Contains(target) {
		s.Add(target.Source)
	}
	lo := max(target.Round+1, d.base())
	if r < lo || r >= d.Height() {
		return s
	}
	d.clearMarks(lo, r)
	for q := lo; q <= r; q++ {
		for _, v := range d.rowAt(q).verts {
			if v == nil {
				continue
			}
			for _, ref := range v.StrongEdges {
				if ref == target || (ref.Round >= lo && d.marked(ref)) {
					d.mark(v.Ref())
					break
				}
			}
		}
	}
	d.forMarked(r, func(v *Vertex) { s.Add(v.Source) })
	return s
}

// History calls fn, in the deterministic (round, source) order the
// delivery procedure uses (Algorithm 6, orderVertices), on every vertex
// reachable from `from` (inclusive) via strong and weak edges — except
// that a vertex for which skip returns true is left out together with
// every vertex reachable only through skipped ones. The sweep runs down
// from from's round and stops below the lowest marked round, so with skip
// reporting a set closed under history (the delivered vertices), the cost
// is the size of the new history, not of the window. skip and fn must not
// query d: they run inside the sweep and would overwrite its marks.
func (d *DAG) History(from VertexRef, skip func(*Vertex) bool, fn func(*Vertex)) {
	if !d.Contains(from) {
		return
	}
	d.clearMarks(d.base(), from.Round)
	d.mark(from)
	low := from.Round
	r := from.Round
	for ; r >= d.base() && r >= low; r-- {
		m := d.markRow(r)
		d.forMarked(r, func(v *Vertex) {
			if skip(v) {
				m[v.Source/64] &^= 1 << (uint(v.Source) % 64)
				return
			}
			low = min(low, d.markParents(v))
		})
	}
	for r++; r <= from.Round; r++ {
		d.forMarked(r, fn)
	}
}

// Uncovered calls fn, round by round from hi down to lo and in source
// order within a round, on each vertex that is in neither the causal
// history of refs nor that of a vertex fn was called on before — the
// sweep behind DAG-Rider's weak edges (Algorithm 4, setWeakEdges). The
// sweep starts at the highest round of refs, which may lie above hi. fn
// must not query d.
func (d *DAG) Uncovered(refs []VertexRef, hi, lo int, fn func(*Vertex)) {
	lo = max(lo, d.base())
	hi = min(hi, d.Height()-1)
	if hi < lo {
		return
	}
	top := hi
	for _, ref := range refs {
		top = max(top, min(ref.Round, d.Height()-1))
	}
	d.clearMarks(lo, top)
	for _, ref := range refs {
		if d.inWindow(ref) {
			d.mark(ref)
		}
	}
	for r := top; r >= lo; r-- {
		if r <= hi {
			rw, m := d.rowAt(r), d.markRow(r)
			for s, v := range rw.verts {
				if v != nil && m[s/64]&(1<<(uint(s)%64)) == 0 {
					fn(v)
					m[s/64] |= 1 << (uint(s) % 64)
				}
			}
		}
		d.forMarked(r, func(v *Vertex) { d.markParents(v) })
	}
}

// Pruning support: DAG-Rider keeps the full graph (the paper flags its
// unbounded memory in §4.5); Bullshark-style garbage collection becomes
// safe once a round's vertices have all been delivered, because everything
// below a delivered vertex is delivered too (deliveries happen as whole
// causal histories). Pruned rounds have no row, so they read as absent and
// the sweeps stop at the watermark, which is sound for the remaining
// queries (commit rules and leader stacks only inspect rounds above the
// last decided wave).

// PruneBelow removes the contiguous prefix of rounds strictly below limit
// in which every vertex satisfies canPrune (typically "was delivered").
// It stops at the first round that does not qualify and returns the new
// watermark: the lowest retained round. Pruned rounds are dropped from the
// front of the storage window and their rows kept, cleared, for the rounds
// Add grows into next, so a long-lived run's memory tracks the live
// window, not the total round count.
func (d *DAG) PruneBelow(limit int, canPrune func(*Vertex) bool) int {
	r := d.base()
rounds:
	for ; r < min(limit, d.Height()); r++ {
		for _, v := range d.rowAt(r).verts {
			if v != nil && !canPrune(v) {
				break rounds
			}
		}
	}
	d.rounds.DropBelow(r)
	return d.base()
}

// PrunedBelow returns the lowest retained round (0 when nothing was
// pruned).
func (d *DAG) PrunedBelow() int { return d.base() }

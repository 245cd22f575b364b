package rider

import (
	"sort"

	"repro/internal/dag"
	"repro/internal/sim"
	"repro/internal/types"
)

// The map-based DAG queries that the bitset-row queries of internal/dag
// replaced, kept as the differential reference: methods turned into
// functions over the DAG's Get and RoundVertices, and DAG.path reduced to
// the strong-edge mode StrongPath used, but otherwise unchanged. Every new
// query must answer exactly as these do, because the weak edges a process
// writes, its commit decisions and the order it delivers in are defined
// by them.

// refParents is the old Vertex.Parents: strong then weak edges, copied.
func refParents(v *dag.Vertex) []dag.VertexRef {
	out := make([]dag.VertexRef, 0, len(v.StrongEdges)+len(v.WeakEdges))
	out = append(out, v.StrongEdges...)
	out = append(out, v.WeakEdges...)
	return out
}

// refStrongPath is the old DAG.StrongPath (DAG.path without weak edges):
// a DFS with a visited map.
func refStrongPath(d *dag.DAG, from, to dag.VertexRef) bool {
	if from == to {
		return true
	}
	if from.Round <= to.Round {
		return false
	}
	visited := map[dag.VertexRef]bool{}
	stack := []dag.VertexRef{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[cur] {
			continue
		}
		visited[cur] = true
		v, ok := d.Get(cur)
		if !ok {
			continue
		}
		for _, ref := range v.StrongEdges {
			if ref == to {
				return true
			}
			if ref.Round > to.Round && !visited[ref] {
				stack = append(stack, ref)
			}
		}
	}
	return false
}

// refStrongReachSources is the old DAG.StrongReachSources: one DFS per
// round-r vertex.
func refStrongReachSources(d *dag.DAG, n, r int, target dag.VertexRef) types.Set {
	s := types.NewSet(n)
	for _, v := range d.RoundVertices(r) {
		if refStrongPath(d, v.Ref(), target) {
			s.Add(v.Source)
		}
	}
	return s
}

// refCausalHistory is the old DAG.CausalHistory: the whole reachable set,
// sorted by (round, source).
func refCausalHistory(d *dag.DAG, v dag.VertexRef) []*dag.Vertex {
	visited := map[dag.VertexRef]bool{}
	var out []*dag.Vertex
	stack := []dag.VertexRef{v}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[cur] {
			continue
		}
		visited[cur] = true
		vv, ok := d.Get(cur)
		if !ok {
			continue
		}
		out = append(out, vv)
		stack = append(stack, refParents(vv)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Round != out[j].Round {
			return out[i].Round < out[j].Round
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// refSetWeakEdges is the old SetWeakEdges: a recursive mark over a
// visited map, re-run from scratch for every vertex.
func refSetWeakEdges(d *dag.DAG, v *dag.Vertex, round int) {
	reachable := map[dag.VertexRef]bool{}
	var mark func(ref dag.VertexRef)
	mark = func(ref dag.VertexRef) {
		if reachable[ref] {
			return
		}
		reachable[ref] = true
		vv, ok := d.Get(ref)
		if !ok {
			return
		}
		for _, p := range refParents(vv) {
			mark(p)
		}
	}
	for _, e := range v.StrongEdges {
		mark(e)
	}
	low := d.PrunedBelow()
	if low < 1 {
		low = 1
	}
	for r := round - 2; r >= low; r-- {
		for _, u := range d.RoundVertices(r) {
			if !reachable[u.Ref()] {
				v.WeakEdges = append(v.WeakEdges, u.Ref())
				mark(u.Ref())
			}
		}
	}
}

// refOrderVertices is the old OrderVertices: each leader's full causal
// history, sorted again, minus what is already delivered.
func refOrderVertices(d *dag.DAG, leaders []dag.VertexRef, delivered map[dag.VertexRef]bool, wave int, now sim.VirtualTime) []Delivery {
	var out []Delivery
	for i := len(leaders) - 1; i >= 0; i-- {
		history := refCausalHistory(d, leaders[i])
		sort.SliceStable(history, func(a, b int) bool {
			if history[a].Round != history[b].Round {
				return history[a].Round < history[b].Round
			}
			return history[a].Source < history[b].Source
		})
		for _, v := range history {
			if delivered[v.Ref()] {
				continue
			}
			delivered[v.Ref()] = true
			out = append(out, Delivery{Ref: v.Ref(), Txs: v.Block, Wave: wave, Time: now})
		}
	}
	return out
}

package dag

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/types"
)

// buildChain constructs a small DAG:
//
//	round 0: a0 b0 c0 (genesis)
//	round 1: a1 -> {a0,b0} strong, c1 -> {c0} strong
//	round 2: a2 -> {a1} strong, -> {c0} weak
func buildChain(t *testing.T) *DAG {
	t.Helper()
	d := New(3)
	g := []*Vertex{
		{Source: 0, Round: 0},
		{Source: 1, Round: 0},
		{Source: 2, Round: 0},
	}
	for _, v := range g {
		if err := d.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	a1 := &Vertex{Source: 0, Round: 1, StrongEdges: []VertexRef{{0, 0}, {1, 0}}}
	c1 := &Vertex{Source: 2, Round: 1, StrongEdges: []VertexRef{{2, 0}}}
	a2 := &Vertex{Source: 0, Round: 2,
		StrongEdges: []VertexRef{{0, 1}},
		WeakEdges:   []VertexRef{{2, 0}},
	}
	for _, v := range []*Vertex{a1, c1, a2} {
		if err := d.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestAddAndGet(t *testing.T) {
	d := buildChain(t)
	if d.VertexCount() != 6 {
		t.Fatalf("VertexCount = %d", d.VertexCount())
	}
	if d.Height() != 3 {
		t.Fatalf("Height = %d", d.Height())
	}
	if _, ok := d.Get(VertexRef{0, 1}); !ok {
		t.Fatal("missing a1")
	}
	if d.Contains(VertexRef{1, 1}) {
		t.Fatal("phantom b1")
	}
	for r, want := range []types.Set{types.NewSetOf(3, 0, 1, 2), types.NewSetOf(3, 0, 2)} {
		if got := d.rowAt(r).srcs; !got.Equal(want) {
			t.Errorf("round %d sources = %v, want %v", r, got, want)
		}
	}
	if d.rowAt(9) != nil {
		t.Error("a round past the height should have no row")
	}
}

func TestAddRejectsMissingParents(t *testing.T) {
	d := New(2)
	v := &Vertex{Source: 0, Round: 1, StrongEdges: []VertexRef{{1, 0}}}
	if err := d.Add(v); err == nil {
		t.Fatal("Add with missing parent should fail")
	}
	if !d.HasAllParents(&Vertex{Source: 0, Round: 0}) {
		t.Error("parentless vertex should pass HasAllParents")
	}
	if d.HasAllParents(v) {
		t.Error("HasAllParents should be false")
	}
}

func TestAddRejectsDuplicates(t *testing.T) {
	d := New(2)
	v1 := &Vertex{Source: 0, Round: 0, Block: []string{"a"}}
	v2 := &Vertex{Source: 0, Round: 0, Block: []string{"b"}}
	if err := d.Add(v1); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(v2); err == nil {
		t.Fatal("duplicate (source,round) with different vertex should fail")
	}
	if err := d.Add(v1); err != nil {
		t.Fatalf("re-adding the same vertex should be idempotent: %v", err)
	}
	if err := d.Add(&Vertex{Source: 0, Round: -1}); err == nil {
		t.Fatal("negative round should fail")
	}
	if err := d.Add(&Vertex{Source: 2, Round: 1}); err == nil {
		t.Fatal("source outside [0, n) should fail")
	}
	// An edge into the vertex's own round breaks the round order the
	// queries rely on, even when the vertex it names is present.
	if err := d.Add(&Vertex{Source: 1, Round: 0, WeakEdges: []VertexRef{{0, 0}}}); err == nil {
		t.Fatal("an edge into the vertex's own round should fail")
	}
}

func TestStrongAndWeakPaths(t *testing.T) {
	d := buildChain(t)
	// a2 → a1 → a0 via strong edges.
	if !d.StrongPath(VertexRef{0, 2}, VertexRef{0, 0}) {
		t.Error("strong path a2→a0 missing")
	}
	// a2 → b0 via a1's strong edge.
	if !d.StrongPath(VertexRef{0, 2}, VertexRef{1, 0}) {
		t.Error("strong path a2→b0 missing")
	}
	// a2 → c0 only via weak edge.
	if d.StrongPath(VertexRef{0, 2}, VertexRef{2, 0}) {
		t.Error("a2→c0 should not be strong")
	}
	if !inHistory(d, VertexRef{0, 2}, VertexRef{2, 0}) {
		t.Error("a2→c0 should be reachable with weak edges")
	}
	// No path upward.
	if inHistory(d, VertexRef{0, 0}, VertexRef{0, 2}) {
		t.Error("paths cannot go to higher rounds")
	}
	// Self path.
	if !d.StrongPath(VertexRef{0, 1}, VertexRef{0, 1}) {
		t.Error("self path should hold")
	}
	// Unrelated.
	if inHistory(d, VertexRef{2, 1}, VertexRef{0, 0}) {
		t.Error("c1→a0 should not exist")
	}
}

// history collects History(from) with nothing skipped.
func history(d *DAG, from VertexRef) []*Vertex {
	var out []*Vertex
	d.History(from, func(*Vertex) bool { return false }, func(v *Vertex) { out = append(out, v) })
	return out
}

// inHistory reports whether to is reachable from from through strong and
// weak edges.
func inHistory(d *DAG, from, to VertexRef) bool {
	for _, v := range history(d, from) {
		if v.Ref() == to {
			return true
		}
	}
	return false
}

func TestStrongReach(t *testing.T) {
	d := buildChain(t)
	if got := d.StrongReachSources(1, VertexRef{0, 0}); !got.Equal(types.NewSetOf(3, 0)) {
		t.Errorf("StrongReachSources = %v, want only a1", got)
	}
	if got := d.StrongReachSources(1, VertexRef{2, 0}); !got.Equal(types.NewSetOf(3, 2)) {
		t.Errorf("StrongReachSources = %v", got)
	}
}

func TestCausalHistoryOrderAndCompleteness(t *testing.T) {
	d := buildChain(t)
	h := history(d, VertexRef{0, 2})
	// a2's history: a0, b0, c0(weak), a1, a2 = 5 vertices.
	if len(h) != 5 {
		t.Fatalf("history has %d vertices: %v", len(h), h)
	}
	// Deterministic (round, source) order.
	for i := 1; i < len(h); i++ {
		if h[i-1].Round > h[i].Round ||
			(h[i-1].Round == h[i].Round && h[i-1].Source >= h[i].Source) {
			t.Fatalf("history out of order at %d: %v", i, h)
		}
	}
	// Every vertex's parents precede it.
	pos := map[VertexRef]int{}
	for i, v := range h {
		pos[v.Ref()] = i
	}
	for _, v := range h {
		for _, p := range slices.Concat(v.StrongEdges, v.WeakEdges) {
			if pos[p] >= pos[v.Ref()] {
				t.Fatalf("parent %v not before %v", p, v.Ref())
			}
		}
	}
	// Skipping a1 leaves out a1 and a0/b0, which only a1 reaches, but not
	// c0, which a2 reaches through its weak edge.
	var kept []VertexRef
	d.History(VertexRef{0, 2}, func(v *Vertex) bool { return v.Ref() == VertexRef{0, 1} },
		func(v *Vertex) { kept = append(kept, v.Ref()) })
	if want := []VertexRef{{2, 0}, {0, 2}}; !reflect.DeepEqual(kept, want) {
		t.Errorf("History skipping a1 = %v, want %v", kept, want)
	}
}

func TestRoundVerticesSorted(t *testing.T) {
	d := buildChain(t)
	vs := d.RoundVertices(0)
	if len(vs) != 3 {
		t.Fatalf("round 0 has %d", len(vs))
	}
	for i := 1; i < len(vs); i++ {
		if vs[i-1].Source >= vs[i].Source {
			t.Fatal("RoundVertices not sorted by source")
		}
	}
	if d.RoundVertices(-1) != nil {
		t.Error("negative round should return nil")
	}
}

// TestRoundRefsMatchRoundVertices: AppendRoundRefs appends RoundVertices'
// refs in the same order and keeps what dst held; a round without
// vertices appends nothing.
func TestRoundRefsMatchRoundVertices(t *testing.T) {
	d := buildChain(t)
	prefix := VertexRef{Source: 2, Round: 99}
	for r := -1; r <= d.Height(); r++ {
		want := []VertexRef{prefix}
		for _, v := range d.RoundVertices(r) {
			want = append(want, v.Ref())
		}
		if got := d.AppendRoundRefs([]VertexRef{prefix}, r); !reflect.DeepEqual(got, want) {
			t.Errorf("AppendRoundRefs(%d) = %v, want %v", r, got, want)
		}
	}
}

// TestRandomDAGPathsAgreeWithTransitiveClosure cross-checks the DFS path
// queries against a brute-force transitive closure on random DAGs.
func TestRandomDAGPathsAgreeWithTransitiveClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 4
		rounds := 5
		d := New(n)
		var all []*Vertex
		for src := 0; src < n; src++ {
			v := &Vertex{Source: types.ProcessID(src), Round: 0}
			if err := d.Add(v); err != nil {
				t.Fatal(err)
			}
			all = append(all, v)
		}
		for r := 1; r < rounds; r++ {
			prev := d.RoundVertices(r - 1)
			for src := 0; src < n; src++ {
				if rng.Intn(4) == 0 {
					continue // skip some vertices
				}
				var strong []VertexRef
				for _, p := range prev {
					if rng.Intn(2) == 0 {
						strong = append(strong, p.Ref())
					}
				}
				v := &Vertex{Source: types.ProcessID(src), Round: r, StrongEdges: strong}
				if err := d.Add(v); err != nil {
					t.Fatal(err)
				}
				all = append(all, v)
			}
		}
		// Brute-force strong closure.
		reach := map[VertexRef]map[VertexRef]bool{}
		var closure func(v *Vertex) map[VertexRef]bool
		closure = func(v *Vertex) map[VertexRef]bool {
			if m, ok := reach[v.Ref()]; ok {
				return m
			}
			m := map[VertexRef]bool{v.Ref(): true}
			reach[v.Ref()] = m
			for _, p := range v.StrongEdges {
				pv, _ := d.Get(p)
				for k := range closure(pv) {
					m[k] = true
				}
			}
			return m
		}
		for _, u := range all {
			cu := closure(u)
			for _, w := range all {
				want := cu[w.Ref()]
				if got := d.StrongPath(u.Ref(), w.Ref()); got != want {
					t.Fatalf("StrongPath(%v,%v) = %v, closure says %v", u.Ref(), w.Ref(), got, want)
				}
			}
		}
	}
}

func TestVertexRefString(t *testing.T) {
	if got := (VertexRef{Source: 2, Round: 5}).String(); got != "p3@r5" {
		t.Errorf("String = %q", got)
	}
}

func TestPruneBelow(t *testing.T) {
	d := buildChain(t)
	delivered := map[VertexRef]bool{
		{0, 0}: true, {1, 0}: true, {2, 0}: true,
		{0, 1}: true, {2, 1}: true,
	}
	can := func(v *Vertex) bool { return delivered[v.Ref()] }
	// Prune below round 2: rounds 0 and 1 fully delivered.
	if got := d.PruneBelow(2, can); got != 2 {
		t.Fatalf("watermark = %d, want 2", got)
	}
	if d.PrunedBelow() != 2 {
		t.Fatalf("PrunedBelow = %d", d.PrunedBelow())
	}
	if d.Contains(VertexRef{0, 0}) || d.Contains(VertexRef{0, 1}) {
		t.Error("pruned vertices still visible")
	}
	if !d.Contains(VertexRef{0, 2}) {
		t.Error("retained vertex lost")
	}
	// Adding into a pruned round fails.
	if err := d.Add(&Vertex{Source: 1, Round: 1}); err == nil {
		t.Error("Add into pruned round should fail")
	}
	// Path queries through pruned regions terminate (and report absence).
	if d.StrongPath(VertexRef{0, 2}, VertexRef{0, 0}) {
		t.Error("path into pruned region should be absent")
	}
	if d.VertexCount() != 1 {
		t.Errorf("VertexCount = %d, want 1", d.VertexCount())
	}
}

// TestPrunedRowsReused: PruneBelow keeps the rows it drops and the rounds
// Add grows into next take them, and a reused row holds nothing of the
// round it held before. Round 1 (a1, c1) is reused by round 3 and round 0
// (all three sources) by round 4, so a stale slot or source set would show
// in Contains, AppendRoundRefs or VertexCount.
func TestPrunedRowsReused(t *testing.T) {
	d := buildChain(t)
	round0, round1 := &d.rowAt(0).verts[0], &d.rowAt(1).verts[0]
	if got := d.PruneBelow(2, func(*Vertex) bool { return true }); got != 2 {
		t.Fatalf("watermark = %d, want 2", got)
	}
	b3 := &Vertex{Source: 1, Round: 3, StrongEdges: []VertexRef{{0, 2}}}
	a4 := &Vertex{Source: 0, Round: 4, StrongEdges: []VertexRef{{1, 3}}}
	for _, v := range []*Vertex{b3, a4} {
		if err := d.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if &d.rowAt(3).verts[0] != round1 || &d.rowAt(4).verts[0] != round0 {
		t.Fatal("rounds 3 and 4 did not reuse the rows of rounds 1 and 0")
	}
	for _, ref := range []VertexRef{{0, 3}, {2, 3}, {1, 4}, {2, 4}} {
		if d.Contains(ref) {
			t.Errorf("reused row holds a stale vertex at %v", ref)
		}
	}
	if got := d.AppendRoundRefs(nil, 3); !reflect.DeepEqual(got, []VertexRef{b3.Ref()}) {
		t.Errorf("AppendRoundRefs(3) = %v, want [%v]", got, b3.Ref())
	}
	if got := d.AppendRoundRefs(nil, 4); !reflect.DeepEqual(got, []VertexRef{a4.Ref()}) {
		t.Errorf("AppendRoundRefs(4) = %v, want [%v]", got, a4.Ref())
	}
	if got := d.VertexCount(); got != 3 {
		t.Errorf("VertexCount = %d, want 3 (a2, b3, a4)", got)
	}
	if got, want := d.StrongReachSources(4, VertexRef{0, 2}), types.NewSetOf(3, 0); !got.Equal(want) {
		t.Errorf("StrongReachSources(4, a2) = %v, want %v", got, want)
	}
}

func TestPruneBelowStopsAtUndelivered(t *testing.T) {
	d := buildChain(t)
	// Round 0 delivered, round 1 NOT fully delivered.
	delivered := map[VertexRef]bool{
		{0, 0}: true, {1, 0}: true, {2, 0}: true,
		{0, 1}: true, // c1 (2,1) missing
	}
	can := func(v *Vertex) bool { return delivered[v.Ref()] }
	if got := d.PruneBelow(3, can); got != 1 {
		t.Fatalf("watermark = %d, want 1 (stop at round 1)", got)
	}
	if !d.Contains(VertexRef{2, 1}) {
		t.Error("undelivered vertex must survive")
	}
}

package rider

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/dag"
	"repro/internal/types"
)

// randomDAG builds a DAG over n processes shaped like the protocol's:
// genesis, then rounds 1..rounds-1 in which each source is missing with
// probability 1/5 and a present vertex has strong edges to a random
// quorum-sized (n−f) subset of the previous round, or all of it when
// fewer are present, and sometimes weak edges to random older vertices.
// After round prune/2+2 everything below prune/2 is pruned, and after
// round prune+2 everything below prune, so the later rounds are built over
// a base-offset window whose rows were recycled from pruned rounds and
// whose lowest rounds hold edges into the pruned prefix. It returns the DAG
// and every vertex created, pruned ones included.
func randomDAG(rng *rand.Rand, n, rounds, prune int) (*dag.DAG, []*dag.Vertex) {
	d := dag.New(n)
	all := Genesis(n)
	for _, g := range all {
		if err := d.Add(g); err != nil {
			panic(err)
		}
	}
	quorum := n - (n-1)/3
	for r := 1; r < rounds; r++ {
		if r == prune/2+2 || r == prune+2 {
			d.PruneBelow(r-2, func(*dag.Vertex) bool { return true })
		}
		prev := d.RoundVertices(r - 1)
		var older []*dag.Vertex
		for q := max(d.PrunedBelow(), 0); q < r-1; q++ {
			older = append(older, d.RoundVertices(q)...)
		}
		keep := rng.Intn(n) // this source is never missing, so no round is empty
		for src := 0; src < n; src++ {
			if src != keep && rng.Intn(5) == 0 {
				continue
			}
			v := &dag.Vertex{Source: types.ProcessID(src), Round: r, Block: []string{fmt.Sprintf("tx-%d-%d", src, r)}}
			for _, i := range rng.Perm(len(prev))[:min(quorum, len(prev))] {
				v.StrongEdges = append(v.StrongEdges, prev[i].Ref())
			}
			if len(older) > 0 && rng.Intn(2) == 0 {
				for k := rng.Intn(3); k >= 0; k-- {
					v.WeakEdges = append(v.WeakEdges, older[rng.Intn(len(older))].Ref())
				}
			}
			if err := d.Add(v); err != nil {
				panic(err)
			}
			all = append(all, v)
		}
	}
	return d, all
}

// checkDAGQueries builds one random DAG and compares every dense-row query
// with its map-based reference from reference_test.go.
func checkDAGQueries(t *testing.T, seed int64, n, rounds int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prune := rng.Intn(rounds)
	d, all := randomDAG(rng, n, rounds, prune)
	refs := make([]dag.VertexRef, 0, len(all)+1)
	for _, v := range all {
		refs = append(refs, v.Ref())
	}
	refs = append(refs, dag.VertexRef{Source: types.ProcessID(n - 1), Round: rounds}) // never created

	for _, from := range refs {
		for _, to := range refs {
			if got, want := d.StrongPath(from, to), refStrongPath(d, from, to); got != want {
				t.Fatalf("seed %d n=%d: StrongPath(%v, %v) = %v, reference %v", seed, n, from, to, got, want)
			}
		}
		for r := from.Round - 1; r <= from.Round+4; r++ {
			if got, want := d.StrongReachSources(r, from), refStrongReachSources(d, n, r, from); !got.Equal(want) {
				t.Fatalf("seed %d n=%d: StrongReachSources(%d, %v) = %v, reference %v", seed, n, r, from, got, want)
			}
		}
	}

	for round := d.PrunedBelow() + 1; round <= d.Height(); round++ {
		prev := d.RoundVertices(round - 1)
		strong := make([]dag.VertexRef, 0, len(prev))
		for _, u := range prev {
			if len(strong) == 0 || rng.Intn(4) != 0 {
				strong = append(strong, u.Ref())
			}
		}
		got := &dag.Vertex{Source: 0, Round: round, StrongEdges: strong}
		want := &dag.Vertex{Source: 0, Round: round, StrongEdges: strong}
		SetWeakEdges(d, got, round)
		refSetWeakEdges(d, want, round)
		if !reflect.DeepEqual(got.WeakEdges, want.WeakEdges) {
			t.Fatalf("seed %d n=%d: SetWeakEdges(round %d) = %v, reference %v", seed, n, round, got.WeakEdges, want.WeakEdges)
		}
	}

	// OrderVertices from a delivered set closed under history: the union
	// of some vertices' histories, as earlier commits leave it.
	for trial := 0; trial < 4; trial++ {
		delivered := map[dag.VertexRef]bool{}
		for k := rng.Intn(3); k > 0; k-- {
			for _, v := range refCausalHistory(d, refs[rng.Intn(len(refs))]) {
				delivered[v.Ref()] = true
			}
		}
		var leaders []dag.VertexRef // a stack: newest first
		for k := 1 + rng.Intn(3); k > 0; k-- {
			leaders = append(leaders, refs[rng.Intn(len(refs))])
		}
		slices.SortStableFunc(leaders, func(a, b dag.VertexRef) int { return b.Round - a.Round })
		refDelivered := map[dag.VertexRef]bool{}
		for ref := range delivered {
			refDelivered[ref] = true
		}
		got := OrderVertices(d, leaders, delivered, trial, 7)
		want := refOrderVertices(d, leaders, refDelivered, trial, 7)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(delivered, refDelivered) {
			t.Fatalf("seed %d n=%d: OrderVertices(%v) = %v, reference %v", seed, n, leaders, got, want)
		}
	}
}

// TestDAGQueriesMatchReference runs the differential check at the sizes
// the benchmark uses, plus n=65, whose rows span two bitset words.
func TestDAGQueriesMatchReference(t *testing.T) {
	for _, c := range []struct{ n, rounds, seeds int }{{4, 20, 12}, {7, 16, 8}, {30, 10, 3}, {65, 5, 1}} {
		for seed := int64(1); seed <= int64(c.seeds); seed++ {
			checkDAGQueries(t, seed, c.n, c.rounds)
		}
	}
}

// FuzzDAGQueries is the differential check over fuzzer-chosen seeds,
// system sizes (1..70) and depths (2..25, fewer at large n, so one input
// stays under a few hundred vertices). The seed
// corpus runs with go test; make fuzz explores further.
func FuzzDAGQueries(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20)) // n=4
	f.Add(int64(2), uint8(6), uint8(16)) // n=7
	f.Add(int64(3), uint8(29), uint8(6)) // n=30
	f.Add(int64(4), uint8(64), uint8(2)) // n=65
	f.Add(int64(5), uint8(0), uint8(8))  // n=1
	f.Add(int64(6), uint8(3), uint8(22)) // n=4, 24 rounds: two prunes, each regrown
	f.Add(int64(7), uint8(9), uint8(20)) // n=10, 22 rounds
	f.Fuzz(func(t *testing.T, seed int64, n, rounds uint8) {
		size := 1 + int(n)%70
		depth := 2 + int(rounds)%min(24, 2+200/size)
		checkDAGQueries(t, seed, size, depth)
	})
}

var sinkDAG *dag.DAG

// TestQueryAllocations pins the allocation cost of the DAG queries on a
// warmed window the size a long-lived n=30 node keeps: 44 rounds
// (GCDepth 12 plus PipelineDepth 8 waves of 4 rounds) above a pruned
// prefix. AllocsPerRun's warm-up call sizes the DAG's scratch rows.
func TestQueryAllocations(t *testing.T) {
	if a := testing.AllocsPerRun(20, func() { sinkDAG = dag.New(30) }); a != 1 {
		t.Errorf("dag.New allocates %v times, want 1: the scratch rows wait for the first query", a)
	}
	rng := rand.New(rand.NewSource(44))
	d, _ := randomDAG(rng, 30, 60, 16)
	if got := d.Height() - d.PrunedBelow(); got != 44 {
		t.Fatalf("window holds %d rounds, want 44", got)
	}
	top := d.Height() - 1
	high := d.RoundVertices(top)[0]
	leader := d.RoundVertices(top - 3)[0].Ref()
	low := d.RoundVertices(d.PrunedBelow())[0].Ref()
	missing := types.ProcessID(0)
	for d.Contains(dag.VertexRef{Source: missing, Round: top}) {
		if missing++; int(missing) == 30 {
			t.Fatal("fixture leaves no source missing from the top round")
		}
	}
	fresh := &dag.Vertex{Source: missing, Round: top, StrongEdges: high.StrongEdges}

	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"HasAllParents", func() { d.HasAllParents(high) }},
		{"Add", func() { _ = d.Add(fresh) }}, // the warm-up call inserts, the rest re-add
		{"StrongPath/wave", func() { d.StrongPath(high.Ref(), leader) }},
		{"StrongPath/window", func() { d.StrongPath(high.Ref(), low) }},
	} {
		if a := testing.AllocsPerRun(50, c.fn); a != 0 {
			t.Errorf("%s allocates %v times, want 0", c.name, a)
		}
	}
	if !d.Contains(fresh.Ref()) {
		t.Fatal("Add did not insert the fresh vertex")
	}
	if a := testing.AllocsPerRun(50, func() { _ = d.StrongReachSources(top, leader) }); a != 0 {
		t.Errorf("StrongReachSources allocates %v times, want 0: its result is the DAG's scratch", a)
	}

	v := &dag.Vertex{Source: high.Source, Round: top + 1, StrongEdges: high.StrongEdges}
	SetWeakEdges(d, v, v.Round)
	k := len(v.WeakEdges)
	if k == 0 {
		t.Fatal("fixture gives the probe vertex no weak edges")
	}
	appendOnly := testing.AllocsPerRun(50, func() {
		var edges []dag.VertexRef
		for i := 0; i < k; i++ {
			edges = append(edges, dag.VertexRef{})
		}
		_ = edges
	})
	if a := testing.AllocsPerRun(50, func() {
		v.WeakEdges = nil
		SetWeakEdges(d, v, v.Round)
	}); a > appendOnly {
		t.Errorf("SetWeakEdges allocates %v times, want at most the %v of appending its %d edges", a, appendOnly, k)
	}
}

func TestCheckVertex(t *testing.T) {
	const n = 4
	strong := []dag.VertexRef{{Source: 0, Round: 4}, {Source: 1, Round: 4}, {Source: 3, Round: 4}}
	weak := []dag.VertexRef{{Source: 2, Round: 3}, {Source: 0, Round: 1}, {Source: 2, Round: 1}}
	slot := broadcast.Slot{Src: 2, Seq: 5}
	good := func() *dag.Vertex {
		return &dag.Vertex{Source: 2, Round: 5,
			StrongEdges: append([]dag.VertexRef(nil), strong...), WeakEdges: append([]dag.VertexRef(nil), weak...)}
	}
	s := types.NewSetOf(n, 2) // scratch left over from an earlier vertex
	if ok := CheckVertex(good(), slot, &s); !ok || !s.Equal(types.NewSetOf(n, 0, 1, 3)) {
		t.Fatalf("well-formed vertex: ok=%v strong=%v", ok, s)
	}
	v := good()
	if a := testing.AllocsPerRun(20, func() { CheckVertex(v, slot, &s) }); a != 0 {
		t.Errorf("CheckVertex into a reused set allocates %v times, want 0", a)
	}
	bad := map[string]func(v *dag.Vertex){
		"wrong source":             func(v *dag.Vertex) { v.Source = 1 },
		"wrong round":              func(v *dag.Vertex) { v.Round = 6 },
		"strong source n":          func(v *dag.Vertex) { v.StrongEdges[2].Source = n },
		"strong source -1":         func(v *dag.Vertex) { v.StrongEdges[0].Source = -1 },
		"weak source 99":           func(v *dag.Vertex) { v.WeakEdges[1].Source = 99 },
		"weak source -1":           func(v *dag.Vertex) { v.WeakEdges[1].Source = -1 },
		"duplicate strong":         func(v *dag.Vertex) { v.StrongEdges[1] = v.StrongEdges[0] },
		"duplicate weak":           func(v *dag.Vertex) { v.WeakEdges[2] = v.WeakEdges[1] },
		"strong out of order":      func(v *dag.Vertex) { v.StrongEdges[0], v.StrongEdges[1] = v.StrongEdges[1], v.StrongEdges[0] },
		"weak rounds ascending":    func(v *dag.Vertex) { v.WeakEdges[0], v.WeakEdges[1] = v.WeakEdges[1], v.WeakEdges[0] },
		"strong into round r-2":    func(v *dag.Vertex) { v.StrongEdges[2].Round = 3 },
		"weak into the strong row": func(v *dag.Vertex) { v.WeakEdges[0].Round = 4 },
		"weak into round -1":       func(v *dag.Vertex) { v.WeakEdges[2].Round = -1 },
	}
	for name, edit := range bad {
		v := good()
		edit(v)
		if CheckVertex(v, slot, &s) {
			t.Errorf("%s: accepted %+v", name, v)
		}
	}
	if CheckVertex(&dag.Vertex{Source: 0, Round: 0}, broadcast.Slot{Src: 0, Seq: 0}, &s) {
		t.Error("a round-0 vertex is genesis and never broadcast")
	}
}

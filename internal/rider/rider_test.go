package rider

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

func TestWaveRoundMapping(t *testing.T) {
	cases := []struct{ w, k, r int }{
		{1, 1, 1}, {1, 4, 4}, {2, 1, 5}, {2, 4, 8}, {3, 2, 10},
	}
	for _, c := range cases {
		if got := WaveRound(c.w, c.k); got != c.r {
			t.Errorf("WaveRound(%d,%d) = %d, want %d", c.w, c.k, got, c.r)
		}
	}
	for r := 1; r <= 20; r++ {
		w := RoundWave(r)
		if WaveRound(w, 1) > r || WaveRound(w, 4) < r {
			t.Errorf("RoundWave(%d) = %d inconsistent", r, w)
		}
	}
	if RoundWave(0) != 0 || RoundWave(-3) != 0 {
		t.Error("RoundWave of genesis rounds should be 0")
	}
}

func TestGenesis(t *testing.T) {
	g := Genesis(5)
	if len(g) != 5 {
		t.Fatalf("Genesis produced %d", len(g))
	}
	for i, v := range g {
		if v.Round != 0 || int(v.Source) != i {
			t.Errorf("genesis vertex %d malformed: %+v", i, v)
		}
	}
}

func TestVertexPayloadKey(t *testing.T) {
	v1 := &dag.Vertex{Source: 1, Round: 2, Block: []string{"a", "b"},
		StrongEdges: []dag.VertexRef{{Source: 0, Round: 1}}}
	v2 := &dag.Vertex{Source: 1, Round: 2, Block: []string{"a", "b"},
		StrongEdges: []dag.VertexRef{{Source: 0, Round: 1}}}
	if (VertexPayload{V: v1}).Key() != (VertexPayload{V: v2}).Key() {
		t.Error("identical vertices must share keys")
	}
	v3 := &dag.Vertex{Source: 1, Round: 2, Block: []string{"a", "x"},
		StrongEdges: []dag.VertexRef{{Source: 0, Round: 1}}}
	if (VertexPayload{V: v1}).Key() == (VertexPayload{V: v3}).Key() {
		t.Error("different blocks must change the key")
	}
	v4 := &dag.Vertex{Source: 1, Round: 2, Block: []string{"a", "b"},
		WeakEdges: []dag.VertexRef{{Source: 0, Round: 1}}}
	if (VertexPayload{V: v1}).Key() == (VertexPayload{V: v4}).Key() {
		t.Error("strong vs weak edges must change the key")
	}
}

func TestSyntheticWorkload(t *testing.T) {
	w := SyntheticWorkload{Self: 2, TxPerBlock: 3}
	b := w.NextBlock(7)
	if len(b) != 3 {
		t.Fatalf("block size %d", len(b))
	}
	if b[0] != "tx-p3-r7-0" {
		t.Errorf("tx label = %q", b[0])
	}
}

func TestQueueWorkload(t *testing.T) {
	w := &QueueWorkload{BatchSize: 2}
	w.Submit("a", "b", "c")
	if got := w.NextBlock(1); len(got) != 2 || got[0] != "a" {
		t.Fatalf("first block = %v", got)
	}
	if got := w.NextBlock(2); len(got) != 1 || got[0] != "c" {
		t.Fatalf("second block = %v", got)
	}
	if got := w.NextBlock(3); len(got) != 0 {
		t.Fatalf("drained queue returned %v", got)
	}
	// Default batch size.
	d := &QueueWorkload{}
	d.Submit("x")
	if got := d.NextBlock(1); len(got) != 1 {
		t.Fatalf("default batch = %v", got)
	}
}

func TestSetWeakEdges(t *testing.T) {
	d := dag.New(3)
	for _, g := range Genesis(3) {
		if err := d.Add(g); err != nil {
			t.Fatal(err)
		}
	}
	// Round 1: only p1 and p2 have vertices.
	a1 := &dag.Vertex{Source: 0, Round: 1, StrongEdges: []dag.VertexRef{{Source: 0, Round: 0}, {Source: 1, Round: 0}, {Source: 2, Round: 0}}}
	b1 := &dag.Vertex{Source: 1, Round: 1, StrongEdges: []dag.VertexRef{{Source: 0, Round: 0}, {Source: 1, Round: 0}, {Source: 2, Round: 0}}}
	for _, v := range []*dag.Vertex{a1, b1} {
		if err := d.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	// Round 2: a2 references only a1.
	a2 := &dag.Vertex{Source: 0, Round: 2, StrongEdges: []dag.VertexRef{a1.Ref()}}
	if err := d.Add(a2); err != nil {
		t.Fatal(err)
	}
	// Late round-1 vertex from p3 appears.
	c1 := &dag.Vertex{Source: 2, Round: 1, StrongEdges: []dag.VertexRef{{Source: 0, Round: 0}, {Source: 1, Round: 0}, {Source: 2, Round: 0}}}
	if err := d.Add(c1); err != nil {
		t.Fatal(err)
	}
	// Round 3 vertex referencing a2 strongly; weak edges must cover b1 and
	// c1 (round 1, unreachable via strong path from a2) but not a1.
	v3 := &dag.Vertex{Source: 0, Round: 3, StrongEdges: []dag.VertexRef{a2.Ref()}}
	SetWeakEdges(d, v3, 3)
	weak := map[dag.VertexRef]bool{}
	for _, e := range v3.WeakEdges {
		weak[e] = true
	}
	if !weak[b1.Ref()] || !weak[c1.Ref()] {
		t.Errorf("weak edges %v should cover b1 and c1", v3.WeakEdges)
	}
	if weak[a1.Ref()] {
		t.Error("a1 is strongly reachable; weak edge is redundant")
	}
}

func TestOrderVerticesSkipsDelivered(t *testing.T) {
	d := dag.New(2)
	for _, g := range Genesis(2) {
		if err := d.Add(g); err != nil {
			t.Fatal(err)
		}
	}
	a1 := &dag.Vertex{Source: 0, Round: 1, Block: []string{"t1"},
		StrongEdges: []dag.VertexRef{{Source: 0, Round: 0}, {Source: 1, Round: 0}}}
	if err := d.Add(a1); err != nil {
		t.Fatal(err)
	}
	delivered := map[dag.VertexRef]bool{}
	out1 := OrderVertices(d, []dag.VertexRef{a1.Ref()}, delivered, 1, 10)
	if len(out1) != 3 { // two genesis + a1
		t.Fatalf("first ordering delivered %d vertices", len(out1))
	}
	// Second leader above a1: only the new vertex should be delivered.
	a2 := &dag.Vertex{Source: 0, Round: 2, Block: []string{"t2"}, StrongEdges: []dag.VertexRef{a1.Ref()}}
	if err := d.Add(a2); err != nil {
		t.Fatal(err)
	}
	out2 := OrderVertices(d, []dag.VertexRef{a2.Ref()}, delivered, 2, 20)
	if len(out2) != 1 || out2[0].Ref != a2.Ref() {
		t.Fatalf("second ordering = %+v", out2)
	}
	if out2[0].Wave != 2 || out2[0].Time != 20 {
		t.Errorf("delivery metadata wrong: %+v", out2[0])
	}
}

// TestOrderVerticesStackOrder: the stack is popped oldest-wave-first, so
// earlier leaders' histories deliver before later leaders'.
func TestOrderVerticesStackOrder(t *testing.T) {
	d := dag.New(2)
	for _, g := range Genesis(2) {
		if err := d.Add(g); err != nil {
			t.Fatal(err)
		}
	}
	a1 := &dag.Vertex{Source: 0, Round: 1, StrongEdges: []dag.VertexRef{{Source: 0, Round: 0}, {Source: 1, Round: 0}}}
	b1 := &dag.Vertex{Source: 1, Round: 1, StrongEdges: []dag.VertexRef{{Source: 0, Round: 0}, {Source: 1, Round: 0}}}
	a2 := &dag.Vertex{Source: 0, Round: 2, StrongEdges: []dag.VertexRef{a1.Ref()}}
	for _, v := range []*dag.Vertex{a1, b1, a2} {
		if err := d.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	delivered := map[dag.VertexRef]bool{}
	// Stack pushed newest first: [a2, a1] → pops a1 (older) first.
	out := OrderVertices(d, []dag.VertexRef{a2.Ref(), a1.Ref()}, delivered, 2, 0)
	posA1, posA2 := -1, -1
	for i, del := range out {
		switch del.Ref {
		case a1.Ref():
			posA1 = i
		case a2.Ref():
			posA2 = i
		}
	}
	if posA1 == -1 || posA2 == -1 || posA1 > posA2 {
		t.Fatalf("a1 must deliver before a2: %v", out)
	}
	// b1 is not in any delivered leader's history.
	for _, del := range out {
		if del.Ref == b1.Ref() {
			t.Error("b1 should not be delivered")
		}
	}
}

// TestVertexPayloadKeyFormat pins the exact digest layout against an
// independently (fmt-) built expectation: the pooled-buffer Key rewrite
// must produce byte-identical digests, since reliable broadcast treats
// two payloads as "the same message" exactly when their keys are equal.
func TestVertexPayloadKeyFormat(t *testing.T) {
	v := &dag.Vertex{
		Source: 3, Round: 12, Block: []string{"tx-1", "tx-2"},
		StrongEdges: []dag.VertexRef{{Source: 0, Round: 11}, {Source: 2, Round: 11}},
		WeakEdges:   []dag.VertexRef{{Source: 1, Round: 9}},
	}
	want := fmt.Sprintf("%d|%d|tx-1\x00tx-2\x00|s%d.%d,s%d.%d,w%d.%d,", 3, 12, 0, 11, 2, 11, 1, 9)
	if got := (VertexPayload{V: v}).Key(); got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
}

// TestVertexPayloadKeyPooledBufferReuse hammers Key from several
// goroutines to shake out scratch-buffer aliasing (the returned strings
// must be stable even while the pooled buffers are recycled).
func TestVertexPayloadKeyPooledBufferReuse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := &dag.Vertex{Source: types.ProcessID(g), Round: i, Block: []string{fmt.Sprintf("tx-%d-%d", g, i)}}
				k1 := (VertexPayload{V: v}).Key()
				k2 := (VertexPayload{V: v}).Key()
				if k1 != k2 {
					t.Errorf("key unstable: %q vs %q", k1, k2)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// thresholdNode is the smallest node kind: Base under an (n, f) threshold
// with a round-robin leader and the 2f+1 commit rule.
type thresholdNode struct {
	Base
	f int
}

func (n *thresholdNode) Init(env sim.Env) {
	n.Start(env, Setup{Trust: quorum.NewThreshold(env.N(), n.f), MaxRound: 24,
		Workload: SyntheticWorkload{Self: env.Self(), TxPerBlock: 2}}, thresholdRules{n})
}

type thresholdRules struct{ *thresholdNode }

func (n thresholdRules) Leader(w int) (types.ProcessID, bool) { return types.ProcessID(w % n.n), true }
func (n thresholdRules) Commits(reach types.Set) bool         { return reach.Count() >= 2*n.f+1 }
func (n thresholdRules) WaveDone(env sim.Env, w int)          { n.Commit(env, w) }
func (thresholdRules) Inserted(sim.Env, *dag.Vertex)          {}
func (thresholdRules) Advance(int) bool                       { return true }
func (thresholdRules) Propose(int) bool                       { return true }

// TestCommitBufferHoldsNothing: Commit orders into a buffer it reuses, and
// leaves no delivery in it, so a small commit after a large one does not
// keep the large one's blocks alive once the DAG prunes their vertices.
func TestCommitBufferHoldsNothing(t *testing.T) {
	const n = 4
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &thresholdNode{f: 1}
	}
	sim.NewRunner(sim.Config{N: n, Seed: 5, Latency: sim.UniformLatency{Min: 1, Max: 20}}, nodes).Run(0)
	for _, nd := range nodes {
		b := &nd.(*thresholdNode).Base
		if len(b.Commits()) < 2 || cap(b.ordered) == 0 {
			t.Fatalf("%v committed %d waves into a buffer of %d, want at least 2 commits", b.self, len(b.Commits()), cap(b.ordered))
		}
		for i, d := range b.ordered[:cap(b.ordered)] {
			if !reflect.ValueOf(d).IsZero() {
				t.Fatalf("%v: commit buffer entry %d still holds %+v", b.self, i, d)
			}
		}
	}
}

// idleRules never elect a leader, so a wave boundary commits nothing.
type idleRules struct{}

func (idleRules) Leader(int) (types.ProcessID, bool) { return 0, false }
func (idleRules) Commits(types.Set) bool             { return false }
func (idleRules) WaveDone(sim.Env, int)              {}
func (idleRules) Inserted(sim.Env, *dag.Vertex)      {}
func (idleRules) Advance(int) bool                   { return true }
func (idleRules) Propose(int) bool                   { return true }

// countEnv is a sim.Env that counts what a node sends and keeps nothing.
type countEnv struct{ n, sent int }

func (e *countEnv) Self() types.ProcessID             { return 0 }
func (e *countEnv) N() int                            { return e.n }
func (e *countEnv) Now() sim.VirtualTime              { return 0 }
func (e *countEnv) Send(types.ProcessID, sim.Message) { e.sent++ }

// fixedWorkload proposes the same block every round.
type fixedWorkload []string

func (w fixedWorkload) NextBlock(int) []string { return w }

// TestVertexAllocs: Step creating and broadcasting one vertex costs one
// allocation, the vertex. Both its edge lists are cut from the node's
// slab, its digest is sealed into the vertex, its payload and SEND box for
// free, and the SEND body is cut from the shared carver. The fixture's round 3
// leaves round 2's vertex of source 3 unreferenced, so the new round-4
// vertex carries a weak edge besides its four strong ones.
func TestVertexAllocs(t *testing.T) {
	const n = 4
	env := &countEnv{n: n}
	var b Base
	b.Start(env, Setup{Trust: quorum.NewThreshold(n, 1), Workload: fixedWorkload{"tx-a", "tx-b"}}, idleRules{})
	for r := 1; r <= 3; r++ {
		for s := range n {
			var strong []dag.VertexRef
			for p := range n {
				if r < 3 || p < 3 {
					strong = append(strong, dag.VertexRef{Source: types.ProcessID(p), Round: r - 1})
				}
			}
			if err := b.dag.Add(&dag.Vertex{Source: types.ProcessID(s), Round: r, StrongEdges: strong}); err != nil {
				t.Fatal(err)
			}
			b.tracker(r).Add(types.ProcessID(s))
		}
	}
	if v := b.createVertex(4); len(v.StrongEdges) != n || len(v.WeakEdges) != 1 || cap(v.StrongEdges) != n {
		t.Fatalf("fixture vertex has edges %v (cap %d) and %v, want %d strong and 1 weak", v.StrongEdges, cap(v.StrongEdges), v.WeakEdges, n)
	}
	sent := env.sent
	const runs = 200
	a := testing.AllocsPerRun(runs, func() {
		b.r = 3
		b.Step(env)
	})
	if env.sent-sent != (runs+1)*n || b.r != 4 {
		t.Fatalf("%d Steps sent %d messages and left round %d, want one vertex to each of %d processes each and round 4", runs+1, env.sent-sent, b.r, n)
	}
	if a > 1 {
		t.Errorf("creating and broadcasting a vertex allocates %v times, want at most 1", a)
	}
}

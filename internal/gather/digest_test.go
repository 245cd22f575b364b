package gather

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// bufferProbe wraps a gather node and counts the DISTRIBUTE sets it is
// about to buffer: a well-formed set that the node's S does not yet
// contain but does not contradict either. It reads only S and the gate,
// not the buffer, so the count does not depend on how buffers are kept.
type bufferProbe struct {
	sim.Node
	buffered *int
}

func (b bufferProbe) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	var s Pairs
	open := false
	switch nd := b.Node.(type) {
	case *ConstantRoundNode:
		s, open = nd.s, nd.gate != nil && nd.gate.Open()
	case *BindingNode:
		s, open = nd.inner.s, nd.inner.gate != nil && nd.inner.gate.Open()
	}
	var set Pairs
	switch m := msg.(type) {
	case distSMsg:
		if m.From == from && !open {
			set = m.S
		}
	case distTMsg:
		if m.From == from {
			set = m.T
		}
	case distUMsg:
		if m.From == from {
			set = m.U
		}
	}
	if !s.IsZero() && !set.IsZero() && set.wireValid(env.N()) && !s.ContainsAll(set) && !conflicts(s, set) {
		*b.buffered++
	}
	b.Node.Receive(env, from, msg)
}

// TestGatherRunsMatchRecordedDigests pins what the standalone gathers
// output over a grid of systems, dissemination layers, seeds and
// protocols: every process's delivered set and distributed S set, the
// message and byte counts, and the quiescence time. The grid has two
// halves, each with its own digest: threshold trust, where every vote
// goes to everyone, and asymmetric trust, where reliable broadcast's
// votes go only to the processes whose quorums contain the voter. The
// message and byte counts are those of links: a process's copy of its
// own message is free. With those counts left out, the digests are the
// ones recorded with the copy-on-write Pairs and the per-process waiter
// index of DISTRIBUTE buffers that the plain bitset and the
// arrival-ordered buffer replaced. A digest that moves means a change to
// Pairs or to the buffers changed what a gather sends or delivers. The
// grid must also buffer at least one DISTRIBUTE set, or it would not test
// the buffers.
func TestGatherRunsMatchRecordedDigests(t *testing.T) {
	fed, err := quorum.NewFederated(quorum.FederatedConfig{N: 10, TopTier: 7, TrustedPeers: 2, Tolerance: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	type system struct {
		name  string
		trust quorum.Assumption
	}
	halves := []struct {
		name    string
		systems []system
		want    string
	}{
		{"threshold", []system{
			{"threshold(4,1)", quorum.NewThreshold(4, 1)},
			{"threshold(7,2)", quorum.NewThreshold(7, 2)},
		}, "6003f7f06a86cf0b8aaf3f1913d4af1a3417e2d60c0f02d706fbdbbd7b3d04d0"},
		{"asymmetric", []system{
			{"fig1", quorum.Counterexample()},
			{"federated10", fed},
		}, "c2022b06b6f58a25553db14e039a004776eb3e454c37a8ec7da8ee47758af487"},
	}
	protocols := []struct {
		name string
		make func(Config) sim.Node
	}{
		{"three-round", func(c Config) sim.Node { return NewThreeRoundNode(c) }},
		{"constant-round", func(c Config) sim.Node { return NewConstantRoundNode(c) }},
		{"binding", func(c Config) sim.Node { return NewBindingNode(c) }},
	}
	buffered, runs := 0, 0
	for _, half := range halves {
		h := sha256.New()
		for _, sys := range half.systems {
			n := sys.trust.N()
			for _, mode := range []Dissemination{UsePlain, UseReliable} {
				for seed := int64(1); seed <= 6; seed++ {
					for _, proto := range protocols {
						inner := make([]sim.Node, n)
						nodes := make([]sim.Node, n)
						for i := range nodes {
							inner[i] = proto.make(Config{Trust: sys.trust, Input: InputValue(types.ProcessID(i)), Mode: mode})
							nodes[i] = bufferProbe{Node: inner[i], buffered: &buffered}
						}
						r := sim.NewRunner(sim.Config{N: n, Seed: seed, Latency: sim.UniformLatency{Min: 1, Max: 50}}, nodes)
						r.Run(sim.DefaultEventBudget)
						fmt.Fprintf(h, "run %s %d %d %s\n", sys.name, mode, seed, proto.name)
						for i, nd := range inner {
							g := nd.(gatherNode)
							if out, ok := g.Delivered(); ok {
								fmt.Fprintf(h, "out %d %s\n", i, out)
							}
							fmt.Fprintf(h, "s %d %s\n", i, g.SentS())
						}
						m := r.Metrics()
						fmt.Fprintf(h, "msgs %d bytes %d end %d pending %d\n", m.MessagesSent, m.BytesSent, r.Now(), r.Pending())
						runs++
					}
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != half.want {
			t.Errorf("%s digest %s, recorded %s", half.name, got, half.want)
		}
	}
	if buffered == 0 {
		t.Error("no run buffered a DISTRIBUTE set")
	}
	t.Logf("%d runs buffered %d DISTRIBUTE sets", runs, buffered)
}

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
// own message is free, and a vote by reference leaves out its 32 digest
// bytes. The digests were recorded again when a SEND became its source's
// ECHO (the source no longer echoes its own slot) and last when it became
// its source's READY too (the source casts no READY in its own slot and
// nobody echoes to it). Each takes messages out of every slot and moves
// the schedule of a run, and the grid's count of buffered DISTRIBUTE sets:
// 2 728 → 2 666 → 2 886. A digest that moves means a
// change to Pairs, to the buffers or to reliable broadcast changed what a
// gather sends or delivers. The
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
		}, "3be442c7cd494fdc9ddb6a73f69d91f24cba9a3b61ac7940e0b2c96d2f8dd973"},
		{"asymmetric", []system{
			{"fig1", quorum.Counterexample()},
			{"federated10", fed},
		}, "244fdeb7a0805ed976ad018892d0e3287b96bcedc5bf98702a18de2dcfb4b863"},
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

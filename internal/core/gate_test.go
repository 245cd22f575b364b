package core

import (
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/sim"
	"repro/internal/types"
)

// recordEnv is a sim.Env for feeding Receive by hand: it records every
// message the node sends instead of delivering it.
type recordEnv struct {
	self types.ProcessID
	n    int
	sent *[]sim.Message
}

func (e recordEnv) Self() types.ProcessID                   { return e.self }
func (e recordEnv) N() int                                  { return e.n }
func (e recordEnv) Now() sim.VirtualTime                    { return 0 }
func (e recordEnv) Send(_ types.ProcessID, msg sim.Message) { *e.sent = append(*e.sent, msg) }

// TestStaleControlIgnored: once a node proposes into wave w it drops wave
// w−2's gate. Late ACK, READY and CONFIRM traffic naming a dropped wave —
// from every process, so each would complete a quorum — must neither
// re-create a gate nor make the node broadcast READY or CONFIRM again.
func TestStaleControlIgnored(t *testing.T) {
	const n = 4
	trust := quorum.NewThreshold(n, 1)
	c := coin.NewPRF(3, n)
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = NewNode(Config{Trust: trust, Coin: c, MaxRound: 24})
	}
	sim.NewRunner(sim.Config{N: n, Seed: 3, Latency: sim.UniformLatency{Min: 1, Max: 20}}, nodes).Run(0)

	nd := nodes[0].(*Node)
	w := rider.RoundWave(nd.Round())
	if w < 4 {
		t.Fatalf("node reached only round %d (wave %d), want wave ≥ 4", nd.Round(), w)
	}
	before := nd.Live().WaveCtls
	var sent []sim.Message
	env := recordEnv{self: 0, n: n, sent: &sent}
	for old := 1; old <= w-2; old++ {
		for _, msg := range []sim.Message{ackMsg{&ctl{Wave: old}}, readyMsg{&ctl{Wave: old}}, confirmMsg{&ctl{Wave: old}}} {
			for p := 0; p < n; p++ {
				nd.Receive(env, types.ProcessID(p), msg)
			}
		}
	}
	if got := nd.Live().WaveCtls; got != before {
		t.Errorf("WaveCtls %d → %d: stale control traffic re-created dropped waves", before, got)
	}
	if len(sent) != 0 {
		t.Errorf("stale control traffic made the node send %d messages, first %#v", len(sent), sent[0])
	}
}

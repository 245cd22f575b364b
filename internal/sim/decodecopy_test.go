package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/gather"
	"repro/internal/harness"
	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestDecodedCopiesChangeNoOutput runs three grids twice: with every
// receiver handed the sender's message, as the simulator does, and with
// every receiver other than the sender handed a copy decoded from the
// message's wire encoding, as TCP does. The digests of what they output
// must be equal. A handler that reads a field its message's codec leaves
// out, or re-sends a body that arrived without it — a vote by reference
// is the case in point: it carries no digest on the wire — passes on
// shared values and fails here.
func TestDecodedCopiesChangeNoOutput(t *testing.T) {
	grids := []struct {
		name string
		run  func(t *testing.T, h hash.Hash)
	}{
		{"rider runs", riderGrid},
		{"gather runs", gatherGrid},
		{"Fig. 1 service snapshots", fig1Service},
	}
	t.Cleanup(func() { sim.SetDecodeCopies(false) })
	for _, g := range grids {
		var digest [2]string
		for i, copies := range []bool{false, true} {
			sim.SetDecodeCopies(copies)
			h := sha256.New()
			g.run(t, h)
			digest[i] = hex.EncodeToString(h.Sum(nil))
		}
		sim.SetDecodeCopies(false)
		if digest[0] != digest[1] {
			t.Errorf("%s: digest %s on shared messages, %s on decoded copies", g.name, digest[0], digest[1])
		}
	}
}

// riderGrid hashes what both node kinds deliver and commit, and the
// network totals, over the systems and faults of the recorded rider
// digests (internal/harness).
func riderGrid(t *testing.T, h hash.Hash) {
	fed, err := quorum.NewFederated(quorum.FederatedConfig{N: 10, TopTier: 7, TrustedPeers: 2, Tolerance: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	slow := sim.UniformLatency{Min: 1, Max: 40}
	for _, cfg := range []harness.RiderConfig{
		{Kind: harness.Asymmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 10, TxPerBlock: 1, Seed: 1, CoinSeed: 2, Latency: slow},
		{Kind: harness.Asymmetric, Trust: quorum.NewThreshold(7, 2), NumWaves: 12, TxPerBlock: 1, Seed: 3, CoinSeed: 4, Latency: slow, GCDepth: 4},
		{Kind: harness.Asymmetric, Trust: fed, NumWaves: 6, TxPerBlock: 1, Seed: 5, CoinSeed: 6, RevealedCoin: true},
		{Kind: harness.Asymmetric, Trust: quorum.Counterexample(), NumWaves: 3, TxPerBlock: 1, Seed: 7, CoinSeed: 8},
		{Kind: harness.Symmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 10, TxPerBlock: 1, Seed: 9, CoinSeed: 10, Latency: slow},
		{Kind: harness.Symmetric, Trust: quorum.NewThreshold(7, 2), NumWaves: 8, TxPerBlock: 1, Seed: 11, CoinSeed: 12, Latency: slow,
			Scenario: &scenario.Scenario{Faults: []scenario.NodeFault{scenario.Mute(6)}}},
	} {
		res := harness.RunRider(cfg)
		for p := 0; p < cfg.Trust.N(); p++ {
			if nr, ok := res.Nodes[types.ProcessID(p)]; ok {
				fmt.Fprintf(h, "node %d %v %v\n", p, nr.Deliveries, nr.Commits)
			}
		}
		m := res.Metrics
		fmt.Fprintf(h, "msgs %d bytes %d end %d errors %d\n", m.MessagesSent, m.BytesSent, res.EndTime, m.EncodeErrors)
	}
}

// gatherNode is what the three gathers report.
type gatherNode interface {
	sim.Node
	Delivered() (gather.Pairs, bool)
	SentS() gather.Pairs
}

// gatherGrid hashes what the standalone gathers deliver and distribute,
// and the network totals, over the grid of the recorded gather digests
// (internal/gather).
func gatherGrid(t *testing.T, h hash.Hash) {
	fed, err := quorum.NewFederated(quorum.FederatedConfig{N: 10, TopTier: 7, TrustedPeers: 2, Tolerance: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	protocols := []gather.Kind{gather.KindThreeRound, gather.KindConstantRound, gather.KindBinding}
	for _, trust := range []quorum.Assumption{quorum.NewThreshold(4, 1), quorum.NewThreshold(7, 2), quorum.Counterexample(), fed} {
		n := trust.N()
		for _, mode := range []gather.Dissemination{gather.UsePlain, gather.UseReliable} {
			for seed := int64(1); seed <= 6; seed++ {
				for k, proto := range protocols {
					inner := make([]gatherNode, n)
					nodes := make([]sim.Node, n)
					for i := range nodes {
						inner[i] = gather.NewNode(proto, gather.Config{Trust: trust, Input: gather.InputValue(types.ProcessID(i)), Mode: mode}).(gatherNode)
						nodes[i] = inner[i]
					}
					r := sim.NewRunner(sim.Config{N: n, Seed: seed, Latency: sim.UniformLatency{Min: 1, Max: 50}}, nodes)
					r.Run(sim.DefaultEventBudget)
					fmt.Fprintf(h, "run %d %d %d %d\n", n, mode, seed, k)
					for i, nd := range inner {
						if out, ok := nd.Delivered(); ok {
							fmt.Fprintf(h, "out %d %s\n", i, out)
						}
						fmt.Fprintf(h, "s %d %s\n", i, nd.SentS())
					}
					m := r.Metrics()
					fmt.Fprintf(h, "msgs %d bytes %d end %d pending %d\n", m.MessagesSent, m.BytesSent, r.Now(), r.Pending())
				}
			}
		}
	}
}

// fig1Service hashes every replica's snapshots and final state of a
// Fig. 1 service run, and its network totals.
func fig1Service(t *testing.T, h hash.Hash) {
	cfg := service.Config{Trust: quorum.Counterexample(), Seed: 1, CoinSeed: 2, StopAfterWaves: 4}
	res := service.Run(cfg)
	if !res.Stopped {
		t.Fatal("Fig. 1 service run truncated")
	}
	for p := 0; p < cfg.Trust.N(); p++ {
		rep := res.Replicas[types.ProcessID(p)]
		for _, s := range rep.Snapshots {
			fmt.Fprintf(h, "snap %d %d %d %d %x\n", p, s.Wave, s.Applied, s.Time, s.State)
		}
		fmt.Fprintf(h, "final %d %x\n", p, rep.FinalState)
	}
	m := res.Metrics
	fmt.Fprintf(h, "msgs %d bytes %d end %d\n", m.MessagesSent, m.BytesSent, res.EndTime)
}

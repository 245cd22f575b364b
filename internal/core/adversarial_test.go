package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestAckOnDeliverAblation checks the reading of the ACK rule the node
// implements: the round-2 ACK is sent on DAG insertion, not on arb-deliver
// as the paper's line 142 reads (strengthening #2 of the package comment).
// A benign schedule runs to the round bound, decides, and commits a valid
// leader chain.
func TestAckOnDeliverAblation(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	c := coin.NewPRF(3, 4)
	nodes := make([]sim.Node, 4)
	raw := make([]*core.Node, 4)
	for i := range nodes {
		nd := core.NewNode(core.Config{
			Trust:    trust,
			Coin:     c,
			Workload: rider.SyntheticWorkload{Self: types.ProcessID(i), TxPerBlock: 1},
			MaxRound: 24,
		})
		nodes[i] = nd
		raw[i] = nd
	}
	r := sim.NewRunner(sim.Config{N: 4, Seed: 11, Latency: sim.UniformLatency{Min: 1, Max: 30}}, nodes)
	r.Run(0)
	for i, nd := range raw {
		if nd.Round() < 24 {
			t.Errorf("node %d stalled at %d", i, nd.Round())
		}
		if nd.DecidedWave() == 0 {
			t.Errorf("node %d decided nothing", i)
		}
		if err := harness.CheckCommittedLeaderChain(nd.DAG(), nd.Commits()); err != nil {
			t.Error(err)
		}
	}
}

// TestAdversarialScheduleOnCounterexample: the consensus protocol stays
// safe under the Appendix A quorum-favoring schedule on the 30-process
// system (the schedule that breaks Algorithm 2's gather).
func TestAdversarialScheduleOnCounterexample(t *testing.T) {
	if testing.Short() {
		t.Skip("30-process adversarial run is slow")
	}
	sys := quorum.Counterexample()
	fav := make([]types.Set, sys.N())
	for i := range fav {
		fav[i] = sys.Quorums(types.ProcessID(i))[0]
	}
	res := harness.RunRider(harness.RiderConfig{
		Kind:       harness.Asymmetric,
		Trust:      sys,
		NumWaves:   2,
		TxPerBlock: 1,
		Seed:       1,
		CoinSeed:   1,
		Latency:    sim.FavoredLinksLatency{Favored: fav, Fast: 1, Slow: 5000},
	})
	all := types.FullSet(30)
	if err := res.CheckTotalOrder(all); err != nil {
		t.Error(err)
	}
	if err := res.CheckIntegrity(all); err != nil {
		t.Error(err)
	}
	if err := res.CheckAgreement(all); err != nil {
		t.Error(err)
	}
	for p, nr := range res.Nodes {
		if nr.Round < 8 {
			t.Errorf("%v stalled at round %d under the adversarial schedule", p, nr.Round)
		}
	}
}

// TestPartitionHealLiveness: a 2-2 split of threshold(4,1) makes progress
// impossible (no side holds a quorum of 3); once the partition heals,
// commits resume. Cross-partition messages are delayed until the heal time
// rather than dropped, so the reliable-links assumption holds — this is a
// legal asynchronous schedule.
func TestPartitionHealLiveness(t *testing.T) {
	const heal = sim.VirtualTime(10000)
	groupA := types.NewSetOf(4, 0, 1)
	lat := sim.LatencyFunc(func(from, to types.ProcessID, _ sim.Message, now sim.VirtualTime, rng *rand.Rand) sim.VirtualTime {
		sameSide := groupA.Contains(from) == groupA.Contains(to)
		if sameSide || now >= heal {
			return 1 + sim.VirtualTime(rng.Int63n(10))
		}
		// Cross-partition: park until just after the heal.
		return heal - now + sim.VirtualTime(rng.Int63n(10))
	})
	res := harness.RunRider(harness.RiderConfig{
		Kind:       harness.Asymmetric,
		Trust:      quorum.NewThreshold(4, 1),
		NumWaves:   6,
		TxPerBlock: 1,
		Seed:       5,
		CoinSeed:   5,
		Latency:    lat,
	})
	committed := 0
	for p, nr := range res.Nodes {
		for _, c := range nr.Commits {
			if c.Time < heal {
				t.Errorf("%v committed wave %d at %d, before the heal at %d", p, c.Wave, c.Time, heal)
			}
		}
		if nr.DecidedWave > 0 {
			committed++
		}
	}
	if committed == 0 {
		t.Error("no commits after the partition healed")
	}
	checkAll(t, res, types.FullSet(4))
}

// crashAt fail-stops its node at virtual time at: from then on it
// handles, and so sends, nothing.
type crashAt struct {
	sim.Node
	at sim.VirtualTime
}

func (c crashAt) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if env.Now() < c.at {
		c.Node.Receive(env, from, msg)
	}
}

// TestMidRunCrash: a process that fail-stops mid-execution (after the run
// is underway) is just another tolerated fault.
func TestMidRunCrash(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	c := coin.NewPRF(21, 4)
	nodes := make([]sim.Node, 4)
	raw := make([]*core.Node, 4)
	for i := range nodes {
		nd := core.NewNode(core.Config{
			Trust:    trust,
			Coin:     c,
			Workload: rider.SyntheticWorkload{Self: types.ProcessID(i), TxPerBlock: 1},
			MaxRound: 32,
		})
		nodes[i] = nd
		raw[i] = nd
	}
	nodes[3] = crashAt{Node: nodes[3], at: 200}
	r := sim.NewRunner(sim.Config{N: 4, Seed: 21, Latency: sim.UniformLatency{Min: 1, Max: 20}}, nodes)
	r.Run(0)
	for i := 0; i < 3; i++ {
		if raw[i].Round() < 32 {
			t.Errorf("node %d stalled at round %d after peer crash", i, raw[i].Round())
		}
		if raw[i].DecidedWave() == 0 {
			t.Errorf("node %d decided nothing after peer crash", i)
		}
	}
	// Delivery sequences prefix-compatible among survivors.
	var longest []rider.Delivery
	for i := 0; i < 3; i++ {
		if len(raw[i].Deliveries()) > len(longest) {
			longest = raw[i].Deliveries()
		}
	}
	for i := 0; i < 3; i++ {
		for k, d := range raw[i].Deliveries() {
			if longest[k].Ref != d.Ref {
				t.Fatalf("total order violated after mid-run crash at node %d", i)
			}
		}
	}
}

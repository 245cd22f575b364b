package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/coin"
	"repro/internal/harness"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

func checkAll(t *testing.T, res harness.RiderResult, within types.Set) {
	t.Helper()
	if err := res.CheckTotalOrder(within); err != nil {
		t.Error(err)
	}
	if err := res.CheckIntegrity(within); err != nil {
		t.Error(err)
	}
	if err := res.CheckAgreement(within); err != nil {
		t.Error(err)
	}
}

func TestSymmetricBasic(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	res := harness.RunRider(harness.RiderConfig{
		Kind:       harness.Symmetric,
		Trust:      trust,
		NumWaves:   8,
		TxPerBlock: 2,
		Seed:       1,
		CoinSeed:   1,
	})
	for p, nr := range res.Nodes {
		if nr.DecidedWave == 0 {
			t.Errorf("%v decided no wave", p)
		}
		if nr.Round < 32 {
			t.Errorf("%v stalled at round %d", p, nr.Round)
		}
	}
	checkAll(t, res, types.FullSet(4))
	if err := res.CheckValidity(types.FullSet(4), 1, 1); err != nil {
		t.Error(err)
	}
}

func TestSymmetricManySeeds(t *testing.T) {
	trust := quorum.NewThreshold(7, 2)
	for seed := int64(0); seed < 5; seed++ {
		res := harness.RunRider(harness.RiderConfig{
			Kind:       harness.Symmetric,
			Trust:      trust,
			NumWaves:   5,
			TxPerBlock: 1,
			Seed:       seed,
			CoinSeed:   seed,
			Latency:    sim.UniformLatency{Min: 1, Max: 30},
		})
		checkAll(t, res, types.FullSet(7))
	}
}

func TestSymmetricWithCrash(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	res := harness.RunRider(harness.RiderConfig{
		Kind:       harness.Symmetric,
		Trust:      trust,
		NumWaves:   8,
		TxPerBlock: 1,
		Seed:       2,
		CoinSeed:   2,
		Scenario:   &scenario.Scenario{Faults: []scenario.NodeFault{scenario.Mute(3)}},
	})
	correct := types.NewSetOf(4, 0, 1, 2)
	committed := 0
	for _, p := range correct.Members() {
		if res.Nodes[p].Round < 32 {
			t.Errorf("%v stalled at round %d", p, res.Nodes[p].Round)
		}
		if res.Nodes[p].DecidedWave > 0 {
			committed++
		}
	}
	if committed == 0 {
		t.Error("no correct process committed with one crash")
	}
	checkAll(t, res, correct)
}

// TestSymmetricExpectedCommitRate: DAG-Rider commits in expectation every
// 3/2 waves; since our common cores are usually larger than 2f+1, the
// empirical rate should be comfortably below 2.
func TestSymmetricExpectedCommitRate(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	total, runs := 0.0, 0
	for seed := int64(0); seed < 6; seed++ {
		res := harness.RunRider(harness.RiderConfig{
			Kind:     harness.Symmetric,
			Trust:    trust,
			NumWaves: 10,
			Seed:     seed,
			CoinSeed: seed * 13,
		})
		for p := range res.Nodes {
			if w, ok := res.WavesPerCommit(p); ok {
				total += w
				runs++
			}
		}
	}
	if runs == 0 {
		t.Fatal("no commits")
	}
	mean := total / float64(runs)
	if mean > 2.0 {
		t.Errorf("mean waves/commit %.2f exceeds expectation", mean)
	}
	t.Logf("symmetric mean waves per commit: %.3f", mean)
}

// TestLeaderChainInvariant mirrors the core test on the baseline.
func TestLeaderChainInvariant(t *testing.T) {
	c := coin.NewPRF(9, 4)
	nodes := make([]sim.Node, 4)
	raw := make([]*baseline.Node, 4)
	for i := range nodes {
		nd := baseline.NewNode(baseline.Config{
			N: 4, F: 1, Coin: c,
			Workload: rider.SyntheticWorkload{Self: types.ProcessID(i), TxPerBlock: 1},
			MaxRound: 40,
		})
		nodes[i] = nd
		raw[i] = nd
	}
	r := sim.NewRunner(sim.Config{N: 4, Seed: 9, Latency: sim.UniformLatency{Min: 1, Max: 25}}, nodes)
	r.Run(0)
	for i, nd := range raw {
		if err := harness.CheckCommittedLeaderChain(nd.DAG(), nd.Commits()); err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// TestSymmetricAsymmetricEquivalence: on the same threshold system with the
// same coin, both protocols must commit the same leaders for the waves
// both decided (the asymmetric protocol generalizes the symmetric one).
func TestSymmetricAsymmetricEquivalence(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	sym := harness.RunRider(harness.RiderConfig{
		Kind: harness.Symmetric, Trust: trust, NumWaves: 6, Seed: 5, CoinSeed: 11,
	})
	asym := harness.RunRider(harness.RiderConfig{
		Kind: harness.Asymmetric, Trust: trust, NumWaves: 6, Seed: 5, CoinSeed: 11,
	})
	// Committed leaders for each wave must agree where both committed.
	symLeaders := map[int]types.ProcessID{}
	for _, nr := range sym.Nodes {
		for _, c := range nr.Commits {
			symLeaders[c.Wave] = c.Leader.Source
		}
	}
	for _, nr := range asym.Nodes {
		for _, c := range nr.Commits {
			if want, ok := symLeaders[c.Wave]; ok && want != c.Leader.Source {
				t.Fatalf("wave %d: symmetric leader %v, asymmetric %v", c.Wave, want, c.Leader.Source)
			}
		}
	}
}

func TestNewNodePanicsOnBadThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n<=3f")
		}
	}()
	baseline.NewNode(baseline.Config{N: 3, F: 1})
}

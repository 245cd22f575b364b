package asymdag_test

import (
	"fmt"
	"reflect"
	"testing"

	asymdag "repro"
)

func TestClusterQuickstartFlow(t *testing.T) {
	trust := asymdag.NewThreshold(4, 1)
	cluster := asymdag.NewCluster(asymdag.ClusterConfig{
		Trust:    trust,
		NumWaves: 8,
		Seed:     1,
		CoinSeed: 2,
	})
	var submitted []string
	for p := 0; p < 4; p++ {
		for k := 0; k < 5; k++ {
			tx := fmt.Sprintf("tx-%d-%d", p, k)
			submitted = append(submitted, tx)
			cluster.Submit(asymdag.ProcessID(p), tx)
		}
	}
	res := cluster.Run()
	if err := res.CheckTotalOrder(asymdag.FullSet(4)); err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MessagesSent == 0 || res.EndTime == 0 {
		t.Error("metrics look empty")
	}
	// At least one node delivered all submitted transactions.
	want := map[string]bool{}
	for _, tx := range submitted {
		want[tx] = true
	}
	best := 0
	for p := 0; p < 4; p++ {
		nr := res.Nodes[asymdag.ProcessID(p)]
		got := 0
		for _, tx := range nr.Blocks {
			if want[tx] {
				got++
			}
		}
		if got > best {
			best = got
		}
		if nr.Round < 32 {
			t.Errorf("process %d stalled at round %d", p, nr.Round)
		}
	}
	if best < len(submitted) {
		t.Errorf("best node delivered %d of %d submitted txs", best, len(submitted))
	}
	committed := 0
	for _, nr := range res.Nodes {
		if len(nr.Commits) > 0 {
			committed++
		}
	}
	if committed == 0 {
		t.Error("nobody committed")
	}
}

func TestClusterOnAsymmetricSystem(t *testing.T) {
	sys := asymdag.Counterexample()
	if testing.Short() {
		t.Skip("30-process run is slow")
	}
	cluster := asymdag.NewCluster(asymdag.ClusterConfig{
		Trust:    sys,
		NumWaves: 3,
		Seed:     4,
		CoinSeed: 4,
	})
	cluster.Submit(0, "hello", "world")
	res := cluster.Run()
	if err := res.CheckTotalOrder(asymdag.FullSet(sys.N())); err != nil {
		t.Fatalf("counterexample system: %v", err)
	}
}

func TestPublicGatherAPI(t *testing.T) {
	sys := asymdag.Counterexample()
	res := asymdag.RunGather(asymdag.GatherConfig{
		Kind:  asymdag.GatherConstantRound,
		Trust: sys,
		Seed:  1,
	})
	if len(res.Outputs) != 30 {
		t.Fatalf("%d outputs", len(res.Outputs))
	}
}

func TestPublicConsensusAPI(t *testing.T) {
	res := asymdag.RunConsensus(asymdag.RiderConfig{
		Kind:     asymdag.RiderAsymmetric,
		Trust:    asymdag.NewThreshold(4, 1),
		NumWaves: 5,
		Seed:     1,
		CoinSeed: 1,
	})
	if err := res.CheckTotalOrder(asymdag.FullSet(4)); err != nil {
		t.Error(err)
	}
}

func TestPublicQuorumAPI(t *testing.T) {
	sys, err := asymdag.NewThresholdExplicit(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(); err != nil {
		t.Error(err)
	}
	fed, err := asymdag.NewFederated(asymdag.FederatedConfig{
		N: 10, TopTier: 7, TrustedPeers: 2, Tolerance: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fed.N() != 10 {
		t.Error("federated N wrong")
	}
	s := asymdag.NewSetOf(5, 0, 2)
	if s.Count() != 2 {
		t.Error("set ops broken through the public API")
	}
	c := asymdag.NewPRFCoin(1, 5)
	if l := c.Leader(1); l < 0 || int(l) >= 5 {
		t.Error("coin out of range")
	}
	// Building a custom system through the public constructors.
	n := 4
	fp := make([][]asymdag.Set, n)
	for i := range fp {
		fp[i] = []asymdag.Set{asymdag.NewSetOf(n, 3)}
	}
	custom, err := asymdag.Canonical(n, fp)
	if err != nil {
		t.Fatal(err)
	}
	if custom.Validate() != nil {
		t.Error("custom canonical system should validate")
	}
}

func TestPublicConsensusWithGCAndRevealedCoin(t *testing.T) {
	res := asymdag.RunConsensus(asymdag.RiderConfig{
		Kind:         asymdag.RiderAsymmetric,
		Trust:        asymdag.NewThreshold(4, 1),
		NumWaves:     6,
		TxPerBlock:   1,
		Seed:         2,
		CoinSeed:     2,
		RevealedCoin: true,
		GCDepth:      2,
	})
	if err := res.CheckTotalOrder(asymdag.FullSet(4)); err != nil {
		t.Error(err)
	}
	committed := 0
	for _, nr := range res.Nodes {
		if nr.DecidedWave > 0 {
			committed++
		}
	}
	if committed == 0 {
		t.Error("no commits with revealed coin + GC through the public API")
	}
}

// TestClusterDefaultLatencyIsUniform is the regression for the documented
// "default: uniform 1..20": a nil-latency cluster must behave exactly
// like an explicit UniformLatency{1, 20} cluster — and therefore
// differently from the lockstep ConstantLatency(1) network that nil used
// to silently fall through to.
func TestClusterDefaultLatencyIsUniform(t *testing.T) {
	run := func(lat asymdag.LatencyModel) asymdag.RiderResult {
		cluster := asymdag.NewCluster(asymdag.ClusterConfig{
			Trust:    asymdag.NewThreshold(4, 1),
			NumWaves: 4,
			Seed:     11,
			CoinSeed: 3,
			Latency:  lat,
		})
		cluster.Submit(0, "a", "b")
		return cluster.Run()
	}
	nilLat := run(nil)
	uniform := run(asymdag.UniformLatency{Min: 1, Max: 20})
	constant := run(asymdag.ConstantLatency(1))

	if nilLat.EndTime != uniform.EndTime || nilLat.Metrics.MessagesSent != uniform.Metrics.MessagesSent {
		t.Fatalf("nil latency (vtime %d, msgs %d) != documented uniform default (vtime %d, msgs %d)",
			nilLat.EndTime, nilLat.Metrics.MessagesSent, uniform.EndTime, uniform.Metrics.MessagesSent)
	}
	if nilLat.EndTime == constant.EndTime {
		t.Fatalf("nil latency still runs the ConstantLatency(1) schedule (vtime %d)", nilLat.EndTime)
	}
}

// TestClusterMatchesRunConsensus pins the one node construction Cluster
// still duplicates: with nothing submitted, a Cluster must run exactly the
// asymmetric protocol RunConsensus runs with empty blocks, so its
// core.Config cannot drift from the harness's. Each system also runs on a
// schedule where process 4's messages lag behind everyone else's: its late
// vertices are what a node-level setting such as GCDepth changes, and the
// uniform default delivers every vertex too early to show it.
func TestClusterMatchesRunConsensus(t *testing.T) {
	laggard := func(n int) asymdag.LatencyModel {
		fast := make([]asymdag.Set, n)
		for i := range fast {
			fast[i] = asymdag.FullSet(n)
			fast[i].Remove(3)
		}
		return asymdag.FavoredLinksLatency{Favored: fast, Fast: 1, Slow: 40}
	}
	for _, tc := range []struct {
		name  string
		trust asymdag.Assumption
		waves int
	}{
		{"threshold(4,1)", asymdag.NewThreshold(4, 1), 6},
		{"counterexample", asymdag.Counterexample(), 2},
	} {
		for _, l := range []struct {
			name string
			lat  asymdag.LatencyModel
		}{{"default", nil}, {"laggard", laggard(tc.trust.N())}} {
			for seed := int64(1); seed <= 3; seed++ {
				cl := asymdag.NewCluster(asymdag.ClusterConfig{
					Trust: tc.trust, NumWaves: tc.waves, Seed: seed, CoinSeed: seed + 10, Latency: l.lat,
				}).Run()
				rc := asymdag.RunConsensus(asymdag.RiderConfig{
					Kind: asymdag.RiderAsymmetric, Trust: tc.trust, NumWaves: tc.waves,
					Seed: seed, CoinSeed: seed + 10, Latency: l.lat,
				})
				what := fmt.Sprintf("%s, %s latency, seed %d", tc.name, l.name, seed)
				if len(rc.Nodes[0].Commits) == 0 {
					t.Fatalf("%s: nothing committed, the comparison is vacuous", what)
				}
				if !reflect.DeepEqual(cl.Metrics, rc.Metrics) {
					t.Fatalf("%s: metrics differ:\ncluster %+v\nrider   %+v", what, *cl.Metrics, *rc.Metrics)
				}
				for p := 0; p < tc.trust.N(); p++ {
					a, b := cl.Nodes[asymdag.ProcessID(p)], rc.Nodes[asymdag.ProcessID(p)]
					if !reflect.DeepEqual(a.Deliveries, b.Deliveries) || !reflect.DeepEqual(a.Commits, b.Commits) {
						t.Fatalf("%s: process %d's deliveries or commits differ", what, p)
					}
				}
			}
		}
	}
}

package asymdag_test

import (
	"fmt"
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
	if !res.OrdersAgree() {
		t.Fatal("delivered orders diverge")
	}
	if res.Messages == 0 || res.VTime == 0 {
		t.Error("metrics look empty")
	}
	// At least one node delivered all submitted transactions.
	want := map[string]bool{}
	for _, tx := range submitted {
		want[tx] = true
	}
	best := 0
	for p := 0; p < 4; p++ {
		got := 0
		for _, tx := range res.Order(asymdag.ProcessID(p)) {
			if want[tx] {
				got++
			}
		}
		if got > best {
			best = got
		}
		if res.Round(asymdag.ProcessID(p)) < 32 {
			t.Errorf("process %d stalled at round %d", p, res.Round(asymdag.ProcessID(p)))
		}
	}
	if best < len(submitted) {
		t.Errorf("best node delivered %d of %d submitted txs", best, len(submitted))
	}
	committed := 0
	for p := 0; p < 4; p++ {
		if res.Commits(asymdag.ProcessID(p)) > 0 {
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
	if !res.OrdersAgree() {
		t.Fatal("orders diverge on counterexample system")
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

// TestPublicACSAndBindingConstruction checks the public constructor of the
// core-set primitive, the binding gather: a fresh node has delivered nothing.
func TestPublicACSAndBindingConstruction(t *testing.T) {
	bind := asymdag.NewBindingGatherNode(asymdag.GatherNodeConfig{
		Trust: asymdag.NewThreshold(4, 1),
		Input: "v",
	})
	if _, ok := bind.Delivered(); ok {
		t.Fatal("binding gather delivered before running")
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
	run := func(lat asymdag.LatencyModel) asymdag.ClusterResult {
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

	if nilLat.VTime != uniform.VTime || nilLat.Messages != uniform.Messages {
		t.Fatalf("nil latency (vtime %d, msgs %d) != documented uniform default (vtime %d, msgs %d)",
			nilLat.VTime, nilLat.Messages, uniform.VTime, uniform.Messages)
	}
	if nilLat.VTime == constant.VTime {
		t.Fatalf("nil latency still runs the ConstantLatency(1) schedule (vtime %d)", nilLat.VTime)
	}
}

// TestClusterMaxStepsBudget pins the Run event budget: a tiny MaxSteps
// truncates the run and flags HitLimit (so a non-quiescing schedule can
// never hang a sweep), the default budget leaves a quiescing run
// untouched, and a negative budget means unbounded.
func TestClusterMaxStepsBudget(t *testing.T) {
	mk := func(maxSteps int) asymdag.ClusterResult {
		c := asymdag.NewCluster(asymdag.ClusterConfig{
			Trust: asymdag.NewThreshold(4, 1), NumWaves: 3, Seed: 1, CoinSeed: 2,
			MaxSteps: maxSteps,
		})
		return c.Run()
	}
	if res := mk(10); !res.HitLimit {
		t.Fatal("10-step budget not reported as hit")
	}
	if res := mk(0); res.HitLimit {
		t.Fatal("default budget flagged on a quiescing run")
	}
	if res := mk(-1); res.HitLimit {
		t.Fatal("unbounded run flagged HitLimit")
	}
}

// TestClusterParallelDeliveryDeterministic pins the public-API face of
// parallel same-time delivery: identical transaction orders and network
// costs for every delivery worker count.
func TestClusterParallelDeliveryDeterministic(t *testing.T) {
	run := func(workers int) asymdag.ClusterResult {
		c := asymdag.NewCluster(asymdag.ClusterConfig{
			Trust: asymdag.NewThreshold(4, 1), NumWaves: 6, Seed: 7, CoinSeed: 8,
			DeliveryWorkers: workers,
		})
		c.Submit(0, "a", "b")
		c.Submit(2, "c")
		return c.Run()
	}
	ref := run(1)
	if !ref.OrdersAgree() {
		t.Fatal("orders diverge under parallel delivery")
	}
	for _, w := range []int{2, 5} {
		res := run(w)
		if res.Messages != ref.Messages || res.Bytes != ref.Bytes || res.VTime != ref.VTime {
			t.Fatalf("workers=%d: costs diverged: %d/%d/%d vs %d/%d/%d",
				w, res.Messages, res.Bytes, res.VTime, ref.Messages, ref.Bytes, ref.VTime)
		}
		for p := 0; p < 4; p++ {
			a, b := res.Order(asymdag.ProcessID(p)), ref.Order(asymdag.ProcessID(p))
			if len(a) != len(b) {
				t.Fatalf("workers=%d: process %d order length %d vs %d", w, p, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d: process %d order diverged at %d: %q vs %q", w, p, i, a[i], b[i])
				}
			}
		}
	}
}

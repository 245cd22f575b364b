package harness

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

// checkRegistered checks that All() lists the given IDs, in order, from
// index from on, each complete and reachable by Find.
func checkRegistered(t *testing.T, from int, want []string) {
	t.Helper()
	exps := All()
	if len(exps) < from+len(want) {
		t.Fatalf("expected at least %d experiments, got %d", from+len(want), len(exps))
	}
	for i, id := range want {
		e := exps[from+i]
		if e.ID != id {
			t.Errorf("experiment %d is %q, want %q", from+i, e.ID, id)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if f, ok := Find(e.ID); !ok || f.Title != e.Title {
			t.Errorf("Find(%q) = %q, %v", e.ID, f.ID, ok)
		}
	}
}

// TestAllExperimentsRegistered pins the one registry: the paper's
// artifacts first, in the order `experiments -list` prints, the
// extensions after them (TestExtensionExperimentsRegistered), nothing else.
func TestAllExperimentsRegistered(t *testing.T) {
	checkRegistered(t, 0, []string{"fig1", "fig2", "fig3", "fig4", "smallsys", "logrounds", "gather", "waves", "compare", "faults"})
	if n := len(All()); n != 16 {
		t.Fatalf("expected 16 experiments, got %d", n)
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) should fail")
	}
}

// TestExtensionExperimentsRegistered pins the experiments beyond the
// paper's own artifacts: the last six entries of All(), in order.
func TestExtensionExperimentsRegistered(t *testing.T) {
	checkRegistered(t, 10, []string{"binding", "gc", "latency", "batching", "traffic", "scenarios"})
}

func TestExpFig1Content(t *testing.T) {
	out := ExpFig1()
	for _, want := range []string{"B3 condition satisfied: true", "valid asymmetric quorum system: true", "smallest quorum c(Q) = 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
}

func TestExpFig4ReproducesLemma32(t *testing.T) {
	out := ExpFig4()
	if !strings.Contains(out, "S sets contained in every U set: {}") {
		t.Errorf("fig4 should report an empty candidate set:\n%s", out)
	}
	if !strings.Contains(out, "matches abstract execution: true") {
		t.Errorf("message-level run should match the abstract execution:\n%s", out)
	}
	if !strings.Contains(out, "common core candidates: {} (empty") {
		t.Errorf("message-level candidates should be empty:\n%s", out)
	}
}

func TestExpSmallSystemsNoViolations(t *testing.T) {
	out := ExpSmallSystems()
	if !strings.Contains(out, " 0 violations") {
		t.Errorf("small-system search must find no violations:\n%s", out)
	}
}

func TestExpLogRounds(t *testing.T) {
	out := ExpLogRounds()
	if !strings.Contains(out, "found=true") {
		t.Errorf("log-rounds experiment should find a common core:\n%s", out)
	}
}

func TestExpGatherComparisonShape(t *testing.T) {
	out := ExpGatherComparison()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var threeAdv, constAdv string
	for _, l := range lines {
		if strings.HasPrefix(l, "three-round") && strings.Contains(l, "adversarial") {
			threeAdv = l
		}
		if strings.HasPrefix(l, "constant-round") && strings.Contains(l, "adversarial") {
			constAdv = l
		}
	}
	if threeAdv == "" || constAdv == "" {
		t.Fatalf("missing rows:\n%s", out)
	}
	if !strings.Contains(threeAdv, "false") {
		t.Errorf("three-round adversarial row should have no common core: %s", threeAdv)
	}
	if !strings.Contains(constAdv, "true") {
		t.Errorf("constant-round adversarial row should have a common core: %s", constAdv)
	}
}

func TestRunRiderPanicsOnBadSymmetricTrust(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("symmetric rider with non-threshold trust should panic")
		}
	}()
	RunRider(RiderConfig{Kind: Symmetric, Trust: quorum.Counterexample(), NumWaves: 1})
}

func TestWavesPerCommitAccessor(t *testing.T) {
	res := RunRider(RiderConfig{
		Kind: Asymmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 6, Seed: 1, CoinSeed: 1,
	})
	found := false
	for p := range res.Nodes {
		if w, ok := res.WavesPerCommit(p); ok {
			if w < 1 {
				t.Errorf("waves/commit %f < 1 is impossible", w)
			}
			found = true
		}
	}
	if !found {
		t.Error("no node committed")
	}
	if _, ok := res.WavesPerCommit(types.ProcessID(99)); ok {
		t.Error("unknown process should not report commits")
	}
	if tp := res.Throughput(0); tp < 0 {
		t.Errorf("throughput %f", tp)
	}
}

func TestCheckersCatchViolations(t *testing.T) {
	// Construct a synthetic result with a total-order violation.
	res := RunRider(RiderConfig{
		Kind: Asymmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 4,
		TxPerBlock: 1, Seed: 5, CoinSeed: 5,
	})
	// Tamper: swap two deliveries at node 0 if it has at least 2.
	nr := res.Nodes[0]
	if len(nr.Deliveries) >= 2 {
		nr.Deliveries[0], nr.Deliveries[1] = nr.Deliveries[1], nr.Deliveries[0]
		res.Nodes[0] = nr
		if err := res.CheckTotalOrder(types.FullSet(4)); err == nil {
			t.Error("tampered order not detected")
		}
		// Restore and duplicate for integrity check.
		nr.Deliveries[0], nr.Deliveries[1] = nr.Deliveries[1], nr.Deliveries[0]
		nr.Deliveries = append(nr.Deliveries, nr.Deliveries[0])
		res.Nodes[0] = nr
		if err := res.CheckIntegrity(types.FullSet(4)); err == nil {
			t.Error("duplicated delivery not detected")
		}
	}
}

// TestCheckAgreementDetectsDisagreement pins the agreement checker: an
// untampered run passes, and a process missing a vertex of the commonly
// decided prefix, or holding a different one in its place, is reported.
func TestCheckAgreementDetectsDisagreement(t *testing.T) {
	all := types.FullSet(4)
	res := RunRider(RiderConfig{
		Kind: Asymmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 4,
		TxPerBlock: 1, Seed: 5, CoinSeed: 5,
	})
	if err := res.CheckAgreement(all); err != nil {
		t.Fatal(err)
	}
	nr := res.Nodes[1]
	if len(nr.Deliveries) == 0 {
		t.Fatal("run too short to tamper with: process 1 delivered nothing")
	}
	orig := nr.Deliveries
	for p, other := range res.Nodes {
		if other.DecidedWave < orig[0].Wave {
			t.Fatalf("run too short to tamper with: %v decided wave %d < %d", p, other.DecidedWave, orig[0].Wave)
		}
	}

	nr.Deliveries = append([]rider.Delivery(nil), orig[1:]...)
	res.Nodes[1] = nr
	if err := res.CheckAgreement(all); err == nil {
		t.Error("dropped delivery not detected")
	}

	nr.Deliveries = append([]rider.Delivery(nil), orig...)
	nr.Deliveries[0].Ref.Round += 1000
	res.Nodes[1] = nr
	if err := res.CheckAgreement(all); err == nil {
		t.Error("substituted delivery not detected")
	}
}

func TestExpGCIdenticalDeliveries(t *testing.T) {
	out := ExpGC()
	if !strings.Contains(out, "true") {
		t.Errorf("GC must not change deliveries:\n%s", out)
	}
}

func TestExpBindingDeliversEverywhere(t *testing.T) {
	out := ExpBinding()
	if !strings.Contains(out, "30/30") {
		t.Errorf("binding gather should deliver everywhere:\n%s", out)
	}
}

func TestExpBatchingMonotoneThroughput(t *testing.T) {
	out := ExpBatching()
	if !strings.Contains(out, "64") {
		t.Errorf("batching sweep incomplete:\n%s", out)
	}
}

func TestExpLatencyShape(t *testing.T) {
	out := ExpLatency()
	if !strings.Contains(out, "threshold(4,1)") || !strings.Contains(out, "asymmetric") {
		t.Errorf("latency table incomplete:\n%s", out)
	}
}

// TestRandomizedPropertySweep is the repository's "mini model checker":
// random trust systems, random tolerated faults, random schedules — the
// Definition 4.1 safety properties must hold in every run with a guild.
func TestRandomizedPropertySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	trials, vacuous := 12, 0
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		var trust quorum.Assumption
		var faulty types.Set
		n := 0
		if trial%2 == 0 {
			// Threshold with random size.
			nf := []struct{ n, f int }{{4, 1}, {5, 1}, {7, 2}}[rng.Intn(3)]
			trust = quorum.NewThreshold(nf.n, nf.f)
			n = nf.n
			faulty = types.NewSet(n)
			for faulty.Count() < rng.Intn(nf.f+1) {
				faulty.Add(types.ProcessID(rng.Intn(n)))
			}
		} else {
			sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{
				N: 6 + rng.Intn(4), NumSets: 2, MaxFault: 2, Seed: rng.Int63(),
			})
			if err != nil {
				continue
			}
			trust = sys
			n = sys.N()
			// Random tolerated fault.
			faulty = types.NewSet(n)
			fps := sys.FailProneSets(types.ProcessID(rng.Intn(n)))
			if len(fps) > 0 && rng.Intn(2) == 0 {
				faulty = fps[rng.Intn(len(fps))]
			}
		}
		sc := &scenario.Scenario{Properties: scenario.SafetyProperties()}
		for _, p := range faulty.Members() {
			sc.Faults = append(sc.Faults, scenario.Mute(p))
		}
		res := RunRider(RiderConfig{
			Kind: Asymmetric, Trust: trust, NumWaves: 5, TxPerBlock: 1,
			Seed: rng.Int63(), CoinSeed: rng.Int63(),
			Latency:  sim.UniformLatency{Min: 1, Max: sim.VirtualTime(5 + rng.Intn(60))},
			Scenario: sc,
		})
		verdict, err := CheckScenarioProperties(res)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if verdict == Vacuous {
			vacuous++
		}
	}
	t.Logf("%d of %d trials had an empty guild and checked nothing", vacuous, trials)
}

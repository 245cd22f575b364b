package harness

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

// randomConformanceSystem derives a random asymmetric system the way the
// conformance suite does, falling back to an explicit threshold system
// when the random parameters admit no valid one.
func randomConformanceSystem(seed int64) (*quorum.System, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(5)
	sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{
		N: n, NumSets: 1 + rng.Intn(2), MaxFault: 1, Seed: rng.Int63(),
	})
	if err != nil {
		return quorum.NewThresholdExplicit(n, (n-1)/3)
	}
	return sys, nil
}

// TestScenarioConformanceSweep is the randomized scenario × seed
// conformance sweep: every built-in scenario (partitions that heal,
// crash-recover churn, Byzantine wrappers, ...) over a seed range, with
// each scenario's declared Definition 4.1 properties checked on every
// run. The default trust is threshold(4,1) and no built-in scenario makes
// more than one process faulty, so the maximal guild is never empty: every
// run must be checked, none pass as Vacuous. Under -race the seeds run
// concurrently (sim.Sweep), so a fault plane, node wrapper or protocol
// handler that wrote package-level state would be reported.
func TestScenarioConformanceSweep(t *testing.T) {
	seedCount := 16
	if testing.Short() {
		seedCount = 3
	}
	defs := scenario.Builtins()
	stats, first := SweepScenarios(defs, sim.SeedRange(1, seedCount), ScenarioSweepConfig{})
	if first != nil {
		t.Fatalf("first failing: %s", first)
	}
	total := 0
	byName := map[string]ScenarioSweepStats{}
	for _, s := range stats {
		byName[s.Name] = s
		total += s.Runs
		if s.Failures > 0 {
			t.Errorf("scenario %s: %d/%d seeds failed; first %s", s.Name, s.Failures, s.Seeds, s.First)
		}
		if s.Runs != seedCount {
			t.Errorf("scenario %s: only %d/%d runs completed", s.Name, s.Runs, seedCount)
		}
		if s.HitLimits > 0 {
			t.Errorf("scenario %s: %d runs truncated at their event budget", s.Name, s.HitLimits)
		}
		if s.Vacuous > 0 {
			t.Errorf("scenario %s: %d/%d runs vacuous (empty maximal guild under threshold(4,1))", s.Name, s.Vacuous, s.Runs)
		}
	}
	if !testing.Short() && total < 100 {
		t.Fatalf("sweep too small: %d runs, need >= 100", total)
	}
	// Guard against vacuous sweeps: the recovery scenarios must actually
	// decide, and the fault scenarios must actually inject.
	for _, name := range []string{"baseline", "partition-heal", "crash-recover", "rolling-churn", "dup-reorder"} {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("required scenario %s missing from the registry", name)
		}
		if s.DecidedNodes != s.Nodes {
			t.Errorf("scenario %s: only %d/%d nodes decided (full liveness expected)", name, s.DecidedNodes, s.Nodes)
		}
	}
	if byName["partition-drop"].Metrics.MessagesDropped == 0 {
		t.Error("partition-drop injected no drops (vacuous)")
	}
	if byName["dup-reorder"].Metrics.Duplicated == 0 {
		t.Error("dup-reorder produced no duplicate traffic (vacuous)")
	}
	if byName["partition-heal"].EndTime <= byName["baseline"].EndTime {
		t.Error("partition-heal did not delay the schedule (vacuous hold)")
	}
}

// TestScenarioSweepRandomizedTrust runs the heal and churn scenarios over
// randomized asymmetric systems (conformance-suite style): the property
// checker computes each run's maximal guild from the scenario's faulty
// set, so it must hold beyond the threshold default too.
func TestScenarioSweepRandomizedTrust(t *testing.T) {
	seedCount := 8
	if testing.Short() {
		seedCount = 2
	}
	for _, name := range []string{"partition-heal", "crash-recover", "churn-lossy", "equivocate"} {
		def, ok := scenario.Find(name)
		if !ok {
			t.Fatalf("builtin %s missing", name)
		}
		for _, sysSeed := range []int64{3, 11} {
			sys, err := randomConformanceSystem(sysSeed)
			if err != nil {
				t.Fatalf("system seed %d: %v", sysSeed, err)
			}
			stats := SweepScenario(def, sim.SeedRange(1, seedCount), ScenarioSweepConfig{Trust: sys})
			if stats.Failures > 0 {
				t.Errorf("%s on random system %d: %d/%d failed; first %s",
					name, sysSeed, stats.Failures, stats.Seeds, stats.First)
			}
			t.Logf("%s on random system %d: %d of %d seeds vacuous (empty guild)", name, sysSeed, stats.Vacuous, stats.Seeds)
		}
	}
}

// TestCheckScenarioPropertiesRejectsViolations pins that the checker is
// not vacuously green: a scenario declaring liveness over a run where a
// guild member decided nothing must fail.
func TestCheckScenarioPropertiesRejectsViolations(t *testing.T) {
	def := scenario.Definition{
		Name: "mute-with-liveness",
		Build: func(n int, seed int64) scenario.Scenario {
			return scenario.Scenario{
				Name: "mute-with-liveness",
				// Deliberately misdeclared: the mute process is marked
				// correct, so it stays in the guild while deciding nothing.
				Faults: []scenario.NodeFault{{
					P: 3, Correct: true,
					Wrap: func(sim.Node) sim.Node { return sim.MuteNode{} },
				}},
				Properties: []scenario.Property{scenario.Liveness},
			}
		},
	}
	// The mute process carries a node fault, so plain Liveness skips it
	// (touched). Force the issue: declare liveness and check a different
	// process's absence instead — run the real scenario and verify the
	// checker catches a guild member without decisions.
	res := RunRider(ScenarioRiderConfig(def, ScenarioSweepConfig{}, 1))
	// Remove an untouched guild member's result to simulate a stall.
	for p := range res.Nodes {
		if p != 3 {
			delete(res.Nodes, p)
			break
		}
	}
	if _, err := CheckScenarioProperties(res); err == nil {
		t.Fatal("checker passed a run with a non-deciding untouched guild member")
	}
}

// TestThresholdGuildMatchesExplicit pins the checker's threshold guild
// against the explicit system's MaximalGuild: for every faulty set of up
// to f+1 members at n = 4 and 7, muting it gives the same guild under
// quorum.Threshold as under its explicit form, each read from the
// scenario's faulty set the way CheckScenarioProperties reads it.
func TestThresholdGuildMatchesExplicit(t *testing.T) {
	for _, nf := range []struct{ n, f int }{{4, 1}, {7, 2}} {
		explicit, err := quorum.NewThresholdExplicit(nf.n, nf.f)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for mask := 0; mask < 1<<nf.n; mask++ {
			if bits.OnesCount(uint(mask)) > nf.f+1 {
				continue
			}
			sc := &scenario.Scenario{}
			faulty := types.NewSet(nf.n)
			for p := 0; p < nf.n; p++ {
				if mask&(1<<p) != 0 {
					sc.Faults = append(sc.Faults, scenario.Mute(types.ProcessID(p)))
					faulty.Add(types.ProcessID(p))
				}
			}
			var trust quorum.Assumption = quorum.NewThreshold(nf.n, nf.f)
			got := trust.MaximalGuild(sc.FaultySet(trust.N()))
			if want := explicit.MaximalGuild(faulty); !got.Equal(want) {
				t.Errorf("threshold(%d,%d), faulty %v: guild %v, explicit system's %v", nf.n, nf.f, faulty, got, want)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("threshold(%d,%d): no faulty set checked", nf.n, nf.f)
		}
	}
}

// TestCheckScenarioPropertiesRejectsEncodeErrors: a run that sent a
// message the wire codec cannot encode fails the checker even when every
// declared property holds.
func TestCheckScenarioPropertiesRejectsEncodeErrors(t *testing.T) {
	def, ok := scenario.Find("baseline")
	if !ok {
		t.Fatal("baseline scenario missing from the registry")
	}
	res := RunRider(ScenarioRiderConfig(def, ScenarioSweepConfig{}, 1))
	if verdict, err := CheckScenarioProperties(res); err != nil || verdict != Held {
		t.Fatalf("baseline run: verdict %v, error %v; want it to hold", verdict, err)
	}
	res.Metrics.EncodeErrors = 1
	if _, err := CheckScenarioProperties(res); err == nil {
		t.Fatal("checker passed a run with an encode error")
	}
}

// TestExpScenarios smoke-tests the experiment artifact.
func TestExpScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	out := ExpScenarios()
	for _, want := range []string{"baseline", "partition-heal", "crash-recover", "equivocate", "first failure"} {
		if !strings.Contains(out, want) {
			t.Errorf("ExpScenarios output missing %q:\n%s", want, out)
		}
	}
	if Failed(out) {
		t.Errorf("ExpScenarios reports a failure:\n%s", out)
	}
}

// TestCheckScenarioPropertiesReportsVacuous: a run whose maximal guild is
// empty passes as Vacuous, not Held, under threshold and explicit trust,
// and a sweep counts it in Vacuous while still counting the seed ok. Two
// mutes exceed threshold(4,1)'s f, and on Fig. 1 every single faulty
// process empties the guild.
func TestCheckScenarioPropertiesReportsVacuous(t *testing.T) {
	const seeds = 2
	for _, tc := range []struct {
		name    string
		trust   quorum.Assumption
		mute    []types.ProcessID
		vacuous int
	}{
		{"threshold(4,1), 1 mute", quorum.NewThreshold(4, 1), []types.ProcessID{3}, 0},
		{"threshold(4,1), 2 mutes", quorum.NewThreshold(4, 1), []types.ProcessID{2, 3}, seeds},
		{"Fig. 1, 1 mute", quorum.Counterexample(), []types.ProcessID{0}, seeds},
	} {
		stats := SweepRider(sim.SeedRange(1, seeds), func(seed int64) RiderConfig {
			sc := &scenario.Scenario{Name: tc.name, Properties: scenario.SafetyProperties()}
			for _, p := range tc.mute {
				sc.Faults = append(sc.Faults, scenario.Mute(p))
			}
			return RiderConfig{Kind: Asymmetric, Trust: tc.trust, NumWaves: 2, TxPerBlock: 1, Seed: seed, CoinSeed: seed, Scenario: sc}
		}, CheckScenarioProperties)
		if stats.Failures != 0 || stats.Runs != seeds || stats.Vacuous != tc.vacuous {
			t.Errorf("%s: %d of %d runs, %d failed, %d vacuous; want %d vacuous (first failure %v)",
				tc.name, stats.Runs, seeds, stats.Failures, stats.Vacuous, tc.vacuous, stats.First)
		}
	}
}

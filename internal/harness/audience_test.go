package harness

import (
	"slices"
	"testing"

	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

// naiveWitnessSystem is an n=7 system in which one faulty process leaves a
// non-empty guild beside a correct but naive process. Processes 1–5 have
// the fail-prone sets {0, 6} and {1 + i mod 5, 6}; processes 0 and 6 have
// {1, 2}; the quorums are canonical. With process 0 faulty the maximal
// guild is {1..5} and process 6 is naive. Votes bite here: no quorum of
// processes 1–5 contains 6, so process 6's votes go only to 0 and 6, and
// 40 of the 49 sender→receiver pairs carry votes.
func naiveWitnessSystem(t *testing.T) *quorum.System {
	t.Helper()
	const n = 7
	fp := make([][]types.Set, n)
	for i := 1; i <= 5; i++ {
		fp[i] = []types.Set{types.NewSetOf(n, 0, 6), types.NewSetOf(n, types.ProcessID(1+i%5), 6)}
	}
	fp[0] = []types.Set{types.NewSetOf(n, 1, 2)}
	fp[6] = []types.Set{types.NewSetOf(n, 1, 2)}
	sys, err := quorum.Canonical(n, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestAudiencesHoldDefinition41BesideNaive runs the two Byzantine
// scenarios that act on votes, equivocate and selective-send, on
// naiveWitnessSystem over 8 seeds, once with process 0 faulty and once
// with process 6 faulty. The guild is {1..5} either way, and the other of
// 0 and 6 is naive and gets no guarantee. Every run must hold Definition
// 4.1 for the guild, which CheckScenarioProperties checks. Process 0's
// audience is everyone, so its votes are broadcasts; process 6's is
// {0, 6}, so its votes are Sends, which the wrappers equivocate and filter
// as multicasts (TestWrappersActOnMulticasts in internal/scenario). The
// equivocation group leaves out the naive process, so it hears the faulty
// process's stale votes.
func TestAudiencesHoldDefinition41BesideNaive(t *testing.T) {
	sys := naiveWitnessSystem(t)
	n := sys.N()
	if pairs, aud := quorum.VotePairs(sys), sys.Audience(6); pairs != 33 || !slices.Equal(aud, []types.ProcessID{0, 6}) {
		t.Fatalf("%d vote links and process 6's audience %v, want 33 and [p1 p7]", pairs, aud)
	}
	if aud := sys.Audience(0); aud != nil {
		t.Fatalf("process 0's audience is %v, want everyone", aud)
	}
	guild := types.NewSetOf(n, 1, 2, 3, 4, 5)
	for _, row := range []struct {
		faulty, naive types.ProcessID
		groupA        types.Set
	}{
		{0, 6, types.NewSetOf(n, 0, 2, 4)},
		{6, 0, types.NewSetOf(n, 2, 4, 6)},
	} {
		f := types.NewSetOf(n, row.faulty)
		if g, naive := sys.MaximalGuild(f), sys.Naive(f); !g.Equal(guild) || !naive.Equal(types.NewSetOf(n, row.naive)) {
			t.Fatalf("with %v faulty: guild %v and naive %v, want %v and {%v}", row.faulty, g, naive, guild, row.naive)
		}
		allow := types.FullSet(n)
		allow.Remove(row.naive)
		for _, sc := range []struct {
			name  string
			fault scenario.NodeFault
		}{
			{"equivocate", scenario.Equivocate(row.faulty, row.groupA)},
			{"selective-send", scenario.Selective(row.faulty, allow)},
		} {
			name, fault := sc.name, sc.fault
			def := scenario.Definition{Name: name, Build: func(int, int64) scenario.Scenario {
				return scenario.Scenario{Name: name, Faults: []scenario.NodeFault{fault}, Properties: scenario.AllProperties()}
			}}
			stats := SweepRider(sim.SeedRange(1, 8),
				func(seed int64) RiderConfig { return ScenarioRiderConfig(def, ScenarioSweepConfig{Trust: sys}, seed) },
				CheckScenarioProperties)
			if stats.Failures > 0 || stats.Runs != 8 || stats.Vacuous != 0 {
				t.Errorf("%s with %v faulty: %d of %d seeds failed or did not run, %d vacuous; first %v", name, row.faulty, stats.Failures, stats.Seeds, stats.Vacuous, stats.First)
			}
		}
	}
}

package quorum

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// namedSystem is one system of the audience tests.
type namedSystem struct {
	name string
	a    Assumption
}

// audienceSystems returns the systems the audience tests run on: the
// paper's Fig. 1 system, the federated systems of ExampleNewFederated
// (n=12) and of the tcp_sat_fed10 workload (n=10), 200 random asymmetric
// systems and the threshold systems n=4 and n=7.
func audienceSystems(t *testing.T) []namedSystem {
	t.Helper()
	systems := []namedSystem{
		{"fig1", Counterexample()},
		{"threshold(4,1)", NewThreshold(4, 1)},
		{"threshold(7,2)", NewThreshold(7, 2)},
	}
	for _, cfg := range []FederatedConfig{
		{N: 12, TopTier: 7, TrustedPeers: 3, Tolerance: 2, Seed: 11},
		{N: 10, TopTier: 7, TrustedPeers: 2, Tolerance: 2, Seed: 5},
	} {
		sys, err := NewFederated(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		systems = append(systems, namedSystem{fmt.Sprintf("federated%d", cfg.N), sys})
	}
	for seed := int64(1); seed <= 200; seed++ {
		cfg := RandomAsymmetricConfig{N: 4 + int(seed%9), NumSets: 1 + int(seed%3), MaxFault: 1, Seed: seed}
		sys, err := RandomAsymmetric(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		systems = append(systems, namedSystem{fmt.Sprintf("random%d", seed), sys})
	}
	return systems
}

// unions returns U_j, the processes whose votes j can count, for every j,
// read back from the audiences: i ∈ U_j iff j ∈ Audience(i). It fails the
// test unless every audience is nil or a strictly increasing list of
// fewer than n processes.
func unions(t *testing.T, name string, a Assumption) []types.Set {
	t.Helper()
	n := a.N()
	u := types.NewSets(n, n)
	for i := 0; i < n; i++ {
		aud := a.Audience(types.ProcessID(i))
		if aud == nil {
			for j := range u {
				u[j].Add(types.ProcessID(i))
			}
			continue
		}
		if len(aud) == n {
			t.Fatalf("%s: audience of p%d is every process but not nil", name, i+1)
		}
		for k, j := range aud {
			if k > 0 && aud[k-1] >= j {
				t.Fatalf("%s: audience of p%d is not in ID order: %v", name, i+1, aud)
			}
			u[j].Add(types.ProcessID(i))
		}
	}
	return u
}

// TestAudiencesKeepPredicates is the argument behind Audience: process
// j's quorum and kernel predicates on any set m equal those on m ∩ U_j,
// where U_j is read back from the audiences and, for an explicit system,
// must be the union of j's quorums. Counts must agree with the audiences,
// Threshold's audiences must be nil, and VotePairs counts links (sender ≠
// receiver): 169 of the 870 on Fig. 1, where 11 of the 30 processes are
// in their own audience, and all 42 at threshold n=7.
func TestAudiencesKeepPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	restricted := map[string]int{}
	for _, ns := range audienceSystems(t) {
		name, a := ns.name, ns.a
		n := a.N()
		u := unions(t, name, a)
		for j := 0; j < n; j++ {
			if u[j].Count() < n {
				restricted[name]++
			}
			pj := types.ProcessID(j)
			if sys, ok := a.(*System); ok {
				want := types.NewSet(n)
				for _, q := range sys.Quorums(pj) {
					want.UnionInPlace(q)
				}
				if !u[j].Equal(want) {
					t.Fatalf("%s: audiences give U_%d = %v, quorums give %v", name, j+1, u[j], want)
				}
			}
			for i := 0; i < n; i++ {
				if got := a.Counts(pj, types.ProcessID(i)); got != u[j].Contains(types.ProcessID(i)) {
					t.Fatalf("%s: Counts(p%d, p%d) = %v, audiences say %v", name, j+1, i+1, got, !got)
				}
			}
			for trial := 0; trial < 20; trial++ {
				density := rng.Float64()
				m := types.NewSet(n)
				for i := 0; i < n; i++ {
					if rng.Float64() < density {
						m.Add(types.ProcessID(i))
					}
				}
				mu := m.Intersect(u[j])
				if a.HasQuorumWithin(pj, m) != a.HasQuorumWithin(pj, mu) || a.HasKernelWithin(pj, m) != a.HasKernelWithin(pj, mu) {
					t.Fatalf("%s: p%d's predicates differ on %v and on its part %v in U_%d", name, j+1, m, mu, j+1)
				}
			}
		}
	}
	// Audiences bite on Fig. 1 and on many random systems. On the
	// tcp_sat_fed10 system every process counts every vote, as under
	// threshold trust, so its sends do not change.
	if restricted["fig1"] != 30 || len(restricted) < 50 || restricted["federated10"] != 0 || restricted["threshold(7,2)"] != 0 {
		t.Fatalf("U_j is smaller than P for %d Fig. 1, %d federated10 and %d threshold(7,2) processes and in %d systems, want 30, 0, 0 and at least 50",
			restricted["fig1"], restricted["federated10"], restricted["threshold(7,2)"], len(restricted))
	}
	t.Logf("U_j is smaller than P somewhere in %d of the systems", len(restricted))
	for _, th := range []Threshold{NewThreshold(4, 1), NewThreshold(7, 2)} {
		for i := 0; i < th.N(); i++ {
			if aud := th.Audience(types.ProcessID(i)); aud != nil {
				t.Fatalf("threshold n=%d: audience of p%d is %v, want nil", th.N(), i+1, aud)
			}
		}
	}
	if pairs := VotePairs(Counterexample()); pairs != 169 {
		t.Fatalf("Fig. 1 audiences hold %d links, want 169", pairs)
	}
	if pairs := VotePairs(NewThreshold(7, 2)); pairs != 42 {
		t.Fatalf("threshold n=7 audiences hold %d links, want 42", pairs)
	}
}

// TestEmptyAudienceIsNotEveryone: a process that no quorum contains has
// an empty audience, which must not read as nil ("every process"), or its
// votes would go to everyone instead of to no one.
func TestEmptyAudienceIsNotEveryone(t *testing.T) {
	const n = 4
	fp := make([][]types.Set, n)
	for i := range fp {
		fp[i] = []types.Set{types.NewSetOf(n, 3)}
	}
	sys, err := Canonical(n, fp)
	if err != nil {
		t.Fatal(err)
	}
	if aud := sys.Audience(3); aud == nil || len(aud) != 0 {
		t.Fatalf("audience of p4, in no quorum, is %#v, want empty and not nil", aud)
	}
	if aud := sys.Audience(0); aud != nil {
		t.Fatalf("audience of p1, in every quorum, is %v, want nil", aud)
	}
	if sys.Counts(0, 3) || !sys.Counts(3, 0) {
		t.Fatal("Counts disagrees with the quorums {p1, p2, p3}")
	}
}

// TestAudienceAllocatesNothing: the audiences are computed when the system
// compiles, so asking for one allocates nothing.
func TestAudienceAllocatesNothing(t *testing.T) {
	sys := Counterexample()
	sys.Audience(0)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < sys.N(); i++ {
			sys.Audience(types.ProcessID(i))
		}
	}); allocs != 0 {
		t.Fatalf("reading the audiences allocates %.1f objects, want 0", allocs)
	}
}

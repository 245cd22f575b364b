package quorum

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

// naiveHasQuorumWithin re-implements the predicate directly over Q_i,
// independent of the compiled evaluator, as the equivalence oracle.
func naiveHasQuorumWithin(s *System, i types.ProcessID, m types.Set) bool {
	for _, q := range s.Quorums(i) {
		if q.IsSubsetOf(m) {
			return true
		}
	}
	return false
}

func naiveHasKernelWithin(s *System, i types.ProcessID, m types.Set) bool {
	for _, q := range s.Quorums(i) {
		if !q.Intersects(m) {
			return false
		}
	}
	return true
}

// opaque hides a System's concrete type: an Assumption that is neither
// *System nor Threshold.
type opaque struct{ *System }

// TestUnsupportedAssumptionPanics: the trackers and HasAnyQuorumWithin
// evaluate only *System and Threshold, and refuse any other Assumption
// instead of answering through a slow path.
func TestUnsupportedAssumptionPanics(t *testing.T) {
	a := opaque{Counterexample()}
	m := types.FullSet(a.N())
	for name, call := range map[string]func(){
		"NewTracker":         func() { NewTracker(a, 0) },
		"NewTrackers":        func() { NewTrackers(a, 0, 2) },
		"HasAnyQuorumWithin": func() { HasAnyQuorumWithin(a, m) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "quorum: unsupported Assumption quorum.opaque" {
					t.Errorf("%s: recovered %v, want the unsupported-Assumption panic", name, r)
				}
			}()
			call()
		}()
	}
}

// testSystems returns the equivalence-test corpus: the paper's Figure 1
// counterexample plus a spread of random asymmetric systems.
func testSystems(t *testing.T) []*System {
	t.Helper()
	systems := []*System{Counterexample()}
	for seed := int64(1); seed <= 6; seed++ {
		sys, err := RandomAsymmetric(RandomAsymmetricConfig{
			N: 8 + int(seed), NumSets: 1 + int(seed)%3, MaxFault: 2, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		systems = append(systems, sys)
	}
	if th, err := NewThresholdExplicit(7, 2); err == nil {
		systems = append(systems, th)
	} else {
		t.Fatalf("threshold explicit: %v", err)
	}
	return systems
}

// TestTrackerEquivalenceRandom drives trackers with random add orders over
// random systems and checks both predicates against the naive scan after
// every single Add — for the compiled engine and the one-shot evaluator
// queries.
func TestTrackerEquivalenceRandom(t *testing.T) {
	for si, sys := range testSystems(t) {
		n := sys.N()
		rng := rand.New(rand.NewSource(int64(si)*997 + 13))
		for trial := 0; trial < 8; trial++ {
			order := rng.Perm(n)
			prefix := rng.Intn(n + 1)
			for pi := 0; pi < n; pi += 3 { // a spread of observer processes
				p := types.ProcessID(pi)
				tr := NewTracker(sys, p)
				m := types.NewSet(n)
				for _, raw := range order[:prefix] {
					x := types.ProcessID(raw)
					m.Add(x)
					tr.Add(x)
					tr.Add(x) // duplicate adds must be no-ops
					wantQ := naiveHasQuorumWithin(sys, p, m)
					wantK := naiveHasKernelWithin(sys, p, m)
					if tr.HasQuorum() != wantQ || tr.HasKernel() != wantK {
						t.Fatalf("system %d trial %d: tracker (%v,%v) vs naive (%v,%v) for p%d m=%v",
							si, trial, tr.HasQuorum(), tr.HasKernel(), wantQ, wantK, pi+1, m)
					}
					if sys.HasQuorumWithin(p, m) != wantQ || sys.HasKernelWithin(p, m) != wantK {
						t.Fatalf("system %d trial %d: one-shot evaluator diverged for p%d m=%v", si, trial, pi+1, m)
					}
				}
				if !tr.Set().Equal(m) || tr.Count() != m.Count() {
					t.Fatalf("system %d: tracker set %v != %v", si, tr.Set(), m)
				}
			}
		}
	}
}

// TestTrackerThresholdEquivalence checks the counting tracker against the
// Threshold predicates for every prefix of random add orders.
func TestTrackerThresholdEquivalence(t *testing.T) {
	for _, cfg := range [][2]int{{4, 1}, {7, 2}, {10, 3}, {100, 33}} {
		th := NewThreshold(cfg[0], cfg[1])
		rng := rand.New(rand.NewSource(int64(cfg[0])))
		for trial := 0; trial < 4; trial++ {
			tr := NewTracker(th, 0)
			m := types.NewSet(cfg[0])
			for _, raw := range rng.Perm(cfg[0]) {
				x := types.ProcessID(raw)
				m.Add(x)
				if !tr.Add(x) {
					t.Fatal("fresh Add returned false")
				}
				if tr.Add(x) {
					t.Fatal("duplicate Add returned true")
				}
				if tr.HasQuorum() != th.HasQuorumWithin(0, m) || tr.HasKernel() != th.HasKernelWithin(0, m) {
					t.Fatalf("n=%d f=%d: counting tracker diverged at %v", cfg[0], cfg[1], m)
				}
			}
		}
	}
}

// TestTrackerMonotone is the latching regression: once a tracker reports a
// predicate true, no later Add may flip it back.
func TestTrackerMonotone(t *testing.T) {
	for si, sys := range testSystems(t) {
		n := sys.N()
		rng := rand.New(rand.NewSource(int64(si) + 5))
		for trial := 0; trial < 6; trial++ {
			p := types.ProcessID(rng.Intn(n))
			tr := NewTracker(sys, p)
			seenQ, seenK := false, false
			for _, raw := range rng.Perm(n) {
				tr.Add(types.ProcessID(raw))
				if seenQ && !tr.HasQuorum() {
					t.Fatalf("system %d: HasQuorum regressed", si)
				}
				if seenK && !tr.HasKernel() {
					t.Fatalf("system %d: HasKernel regressed", si)
				}
				seenQ = seenQ || tr.HasQuorum()
				seenK = seenK || tr.HasKernel()
			}
			// The full set always contains every quorum and kernel.
			if !tr.HasQuorum() || !tr.HasKernel() {
				t.Fatalf("system %d: full tally must satisfy both predicates", si)
			}
		}
	}
}

// TestTrackerResetAndBatchMatchFresh: a tracker emptied by Reset, and each
// tracker NewTrackers cuts from one backing array, answers Add, HasQuorum,
// HasKernel, Count and Set exactly like a fresh NewTracker fed the same
// random order — while its batch neighbours, which share its storage, are
// fed other orders between the checks.
func TestTrackerResetAndBatchMatchFresh(t *testing.T) {
	fed, err := NewFederated(FederatedConfig{N: 12, TopTier: 7, TrustedPeers: 3, Tolerance: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		a    Assumption
	}{
		{"Fig. 1", Counterexample()},
		{"federated", fed},
		{"threshold", NewThreshold(10, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.a.N()
			rng := rand.New(rand.NewSource(int64(n)))
			dirty := func(tr *Tracker) {
				for _, raw := range rng.Perm(n)[:1+rng.Intn(n)] {
					tr.Add(types.ProcessID(raw))
				}
				tr.Reset()
			}
			for trial := 0; trial < 6; trial++ {
				p := types.ProcessID(rng.Intn(n))
				batch := NewTrackers(tc.a, p, 3)
				dirty(&batch[1])
				reset := NewTracker(tc.a, p)
				dirty(reset)
				under := []*Tracker{reset, &batch[0], &batch[1], &batch[2]}
				fresh := make([]*Tracker, len(under))
				orders := make([][]int, len(under))
				for j := range under {
					fresh[j] = NewTracker(tc.a, p)
					orders[j] = rng.Perm(n)
				}
				for x := 0; x < n; x++ {
					for j, tr := range under {
						// Each member once, then a repeat of an earlier one.
						for _, raw := range []int{orders[j][x], orders[j][rng.Intn(x+1)]} {
							m := types.ProcessID(raw)
							if got, want := tr.Add(m), fresh[j].Add(m); got != want {
								t.Fatalf("trial %d tracker %d: Add(%v) = %v, fresh %v", trial, j, m, got, want)
							}
						}
					}
					for j, tr := range under {
						want := fresh[j]
						if tr.HasQuorum() != want.HasQuorum() || tr.HasKernel() != want.HasKernel() ||
							tr.Count() != want.Count() || !tr.Set().Equal(want.Set()) {
							t.Fatalf("trial %d tracker %d after %d adds: (%v,%v,%d,%v), fresh (%v,%v,%d,%v)",
								trial, j, x+1, tr.HasQuorum(), tr.HasKernel(), tr.Count(), tr.Set(),
								want.HasQuorum(), want.HasKernel(), want.Count(), want.Set())
						}
						// The one-shot predicates share no state with a tracker.
						if tr.HasQuorum() != tc.a.HasQuorumWithin(p, tr.Set()) || tr.HasKernel() != tc.a.HasKernelWithin(p, tr.Set()) {
							t.Fatalf("trial %d tracker %d after %d adds: (%v,%v) against the one-shot predicates on %v",
								trial, j, x+1, tr.HasQuorum(), tr.HasKernel(), tr.Set())
						}
					}
				}
			}
		})
	}
}

// TestTrackerAddSet checks bulk adds against element-wise adds.
func TestTrackerAddSet(t *testing.T) {
	sys := Counterexample()
	n := sys.N()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		bulk := types.NewSet(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				bulk.Add(types.ProcessID(i))
			}
		}
		p := types.ProcessID(rng.Intn(n))
		a := NewTracker(sys, p)
		a.AddSet(bulk)
		b := NewTracker(sys, p)
		bulk.ForEach(func(x types.ProcessID) bool { b.Add(x); return true })
		if a.HasQuorum() != b.HasQuorum() || a.HasKernel() != b.HasKernel() || !a.Set().Equal(b.Set()) {
			t.Fatalf("trial %d: AddSet diverged from element-wise adds", trial)
		}
	}
}

// TestHasAnyQuorumWithinEquivalence checks the flat-scan fast path against
// the per-process definition.
func TestHasAnyQuorumWithinEquivalence(t *testing.T) {
	for si, sys := range testSystems(t) {
		n := sys.N()
		rng := rand.New(rand.NewSource(int64(si) * 3))
		for trial := 0; trial < 16; trial++ {
			m := types.NewSet(n)
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					m.Add(types.ProcessID(i))
				}
			}
			want := false
			for i := 0; i < n && !want; i++ {
				want = naiveHasQuorumWithin(sys, types.ProcessID(i), m)
			}
			if got := HasAnyQuorumWithin(sys, m); got != want {
				t.Fatalf("system %d: HasAnyQuorumWithin=%v want %v for %v", si, got, want, m)
			}
		}
	}
}

// naiveMaximalGuild is the pre-engine sweep fixpoint, kept as the oracle
// for the worklist implementation.
func naiveMaximalGuild(s *System, f types.Set) types.Set {
	g := s.Wise(f)
	for {
		removed := false
		for _, p := range g.Members() {
			if !naiveHasQuorumWithin(s, p, g) {
				g.Remove(p)
				removed = true
			}
		}
		if !removed {
			return g
		}
	}
}

// TestMaximalGuildEquivalence checks the worklist guild computation against
// the naive sweep on random systems and random faulty sets.
func TestMaximalGuildEquivalence(t *testing.T) {
	for si, sys := range testSystems(t) {
		n := sys.N()
		rng := rand.New(rand.NewSource(int64(si) * 7))
		for trial := 0; trial < 12; trial++ {
			f := types.NewSet(n)
			for i := 0; i < n; i++ {
				if rng.Intn(5) == 0 {
					f.Add(types.ProcessID(i))
				}
			}
			want := naiveMaximalGuild(sys, f)
			got := sys.MaximalGuild(f)
			if !got.Equal(want) {
				t.Fatalf("system %d f=%v: guild %v want %v", si, f, got, want)
			}
		}
	}
}

// TestEvaluatorSmallestQuorumSize pins the popcount-backed c(Q) against
// direct counting.
func TestEvaluatorSmallestQuorumSize(t *testing.T) {
	for si, sys := range testSystems(t) {
		best := sys.N() + 1
		for i := 0; i < sys.N(); i++ {
			for _, q := range sys.Quorums(types.ProcessID(i)) {
				if c := q.Count(); c < best {
					best = c
				}
			}
		}
		if got := sys.SmallestQuorumSize(); got != best {
			t.Fatalf("system %d: c(Q)=%d want %d", si, got, best)
		}
	}
}

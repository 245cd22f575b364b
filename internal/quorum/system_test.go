package quorum

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/types"
)

func TestThresholdPredicates(t *testing.T) {
	th := NewThreshold(4, 1)
	if th.N() != 4 || th.F() != 1 {
		t.Fatalf("N/F = %d/%d", th.N(), th.F())
	}
	if th.QuorumSize() != 3 || th.KernelSize() != 2 {
		t.Fatalf("quorum/kernel size = %d/%d", th.QuorumSize(), th.KernelSize())
	}
	m2 := types.NewSetOf(4, 0, 1)
	m3 := types.NewSetOf(4, 0, 1, 2)
	if th.HasQuorumWithin(0, m2) {
		t.Error("2 of 4 should not be a quorum")
	}
	if !th.HasQuorumWithin(0, m3) {
		t.Error("3 of 4 should be a quorum")
	}
	if th.HasKernelWithin(0, types.NewSetOf(4, 0)) {
		t.Error("1 of 4 should not contain a kernel")
	}
	if !th.HasKernelWithin(0, m2) {
		t.Error("2 of 4 should contain a kernel (f+1=2)")
	}
}

func TestNewThresholdPanicsOnInfeasible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewThreshold(3,1) should panic (needs n>3f)")
		}
	}()
	NewThreshold(3, 1)
}

// TestThresholdExplicitMatchesThreshold: Threshold answers every
// Assumption question as its explicit form does, for n = 4, 7 and 10. The
// predicates and the any-quorum test run on every subset of P, so on sets
// one below, at and one above n−f; audiences and Counts on every pair; the
// maximal guild on every faulty set of up to f+1 members; and trackers,
// single and batched, after every Add of a random order.
func TestThresholdExplicitMatchesThreshold(t *testing.T) {
	for _, row := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		n, f := row.n, row.f
		sys, err := NewThresholdExplicit(n, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Validate(); err != nil {
			t.Fatalf("threshold(%d,%d): explicit system invalid: %v", n, f, err)
		}
		if !sys.SatisfiesB3() {
			t.Fatalf("threshold(%d,%d): explicit system should satisfy B3", n, f)
		}
		th := NewThreshold(n, f)
		for _, a := range []Assumption{th, sys} {
			if a.N() != n || a.SmallestQuorumSize() != n-f {
				t.Fatalf("threshold(%d,%d) as %T: N = %d, c(Q) = %d", n, f, a, a.N(), a.SmallestQuorumSize())
			}
		}
		bySize := make([]int, n+1)
		guilds := 0
		for mask := 0; mask < 1<<n; mask++ {
			m := types.NewSet(n)
			for p := 0; p < n; p++ {
				if mask&(1<<p) != 0 {
					m.Add(types.ProcessID(p))
				}
			}
			c := m.Count()
			bySize[c]++
			if got, want := th.HasAnyQuorumWithin(m), c >= n-f; got != want || sys.HasAnyQuorumWithin(m) != want {
				t.Fatalf("threshold(%d,%d), %v: HasAnyQuorumWithin %v, explicit %v, want %v", n, f, m, got, sys.HasAnyQuorumWithin(m), want)
			}
			for i := 0; i < n; i++ {
				p := types.ProcessID(i)
				if th.HasQuorumWithin(p, m) != sys.HasQuorumWithin(p, m) || th.HasKernelWithin(p, m) != sys.HasKernelWithin(p, m) {
					t.Fatalf("threshold(%d,%d), p%d, %v: predicates differ from the explicit system's", n, f, i+1, m)
				}
			}
			if c <= f+1 {
				guilds++
				if got, want := th.MaximalGuild(m), sys.MaximalGuild(m); !got.Equal(want) {
					t.Fatalf("threshold(%d,%d), faulty %v: guild %v, explicit system's %v", n, f, m, got, want)
				}
			}
		}
		if bySize[n-f-1] == 0 || bySize[n-f] == 0 || bySize[n-f+1] == 0 || guilds == 0 {
			t.Fatalf("threshold(%d,%d): boundary sets or guilds not checked", n, f)
		}
		for i := 0; i < n; i++ {
			p := types.ProcessID(i)
			if !slices.Equal(th.Audience(p), sys.Audience(p)) {
				t.Fatalf("threshold(%d,%d): audience of p%d is %v, explicit %v", n, f, i+1, th.Audience(p), sys.Audience(p))
			}
			for j := 0; j < n; j++ {
				if th.Counts(p, types.ProcessID(j)) != sys.Counts(p, types.ProcessID(j)) {
					t.Fatalf("threshold(%d,%d): Counts(p%d, p%d) differs", n, f, i+1, j+1)
				}
			}
			want := NewTracker(sys, p)
			trackers := append([]*Tracker{NewTracker(th, p)}, &NewTrackers(th, p, 2)[1], &NewTrackers(sys, p, 2)[1])
			for _, q := range rand.New(rand.NewSource(int64(n*100 + i))).Perm(n) {
				want.Add(types.ProcessID(q))
				for k, tr := range trackers {
					tr.Add(types.ProcessID(q))
					if tr.HasQuorum() != want.HasQuorum() || tr.HasKernel() != want.HasKernel() {
						t.Fatalf("threshold(%d,%d), p%d, tracker %d after %v: quorum %v kernel %v, explicit %v %v",
							n, f, i+1, k, want.Set(), tr.HasQuorum(), tr.HasKernel(), want.HasQuorum(), want.HasKernel())
					}
				}
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	n := 3
	q := types.NewSetOf(n, 0, 1)
	good := [][]types.Set{{q}, {q}, {q}}
	fp := [][]types.Set{nil, nil, nil}
	if _, err := New(n, fp, good); err != nil {
		t.Fatalf("New: %v", err)
	}
	// Wrong universe.
	bad := [][]types.Set{{types.NewSetOf(4, 0)}, {q}, {q}}
	if _, err := New(n, fp, bad); err == nil {
		t.Error("expected universe error")
	}
	// Empty quorum collection.
	if _, err := New(n, fp, [][]types.Set{{}, {q}, {q}}); err == nil {
		t.Error("expected empty-collection error")
	}
	// Empty quorum.
	if _, err := New(n, fp, [][]types.Set{{types.NewSet(n)}, {q}, {q}}); err == nil {
		t.Error("expected empty-quorum error")
	}
	// Wrong lengths.
	if _, err := New(n, fp[:2], good); err == nil {
		t.Error("expected length error")
	}
}

func TestCounterexampleStructure(t *testing.T) {
	sys := Counterexample()
	if sys.N() != 30 {
		t.Fatalf("N = %d", sys.N())
	}
	// Paper: the Fig. 1 fail-prone system satisfies B3 and has a valid
	// canonical quorum system.
	if !sys.SatisfiesB3() {
		t.Fatal("counterexample must satisfy B3 (paper §3.2)")
	}
	if err := sys.Validate(); err != nil {
		t.Fatalf("counterexample must be a valid quorum system: %v", err)
	}
	// Every process has exactly one quorum of size 6.
	for i := 0; i < 30; i++ {
		qs := sys.Quorums(types.ProcessID(i))
		if len(qs) != 1 {
			t.Fatalf("p%d has %d quorums", i+1, len(qs))
		}
		if qs[0].Count() != 6 {
			t.Fatalf("p%d quorum size %d", i+1, qs[0].Count())
		}
	}
	// Spot-check p1's quorum from Listing 1: {1,2,3,4,5,16}.
	want := types.NewSetOf(30, 0, 1, 2, 3, 4, 15)
	if !sys.Quorums(0)[0].Equal(want) {
		t.Fatalf("p1 quorum = %v", sys.Quorums(0)[0])
	}
	if got := sys.SmallestQuorumSize(); got != 6 {
		t.Fatalf("c(Q) = %d, want 6", got)
	}
	// All-correct execution: everyone is wise, maximal guild is everyone
	// (paper Appendix A: "the maximal guild is composed by all the 30
	// processes").
	none := types.NewSet(30)
	if got := sys.MaximalGuild(none); got.Count() != 30 {
		t.Fatalf("maximal guild size = %d, want 30", got.Count())
	}
}

func TestToleratesAndWise(t *testing.T) {
	sys, err := NewThresholdExplicit(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := types.NewSetOf(4, 3)
	if !sys.Tolerates(0, f) {
		t.Error("threshold(4,1) must tolerate one fault")
	}
	two := types.NewSetOf(4, 2, 3)
	if sys.Tolerates(0, two) {
		t.Error("threshold(4,1) must not tolerate two faults")
	}
	wise := sys.Wise(f)
	if !wise.Equal(types.NewSetOf(4, 0, 1, 2)) {
		t.Errorf("Wise = %v", wise)
	}
	if !sys.Naive(f).IsEmpty() {
		t.Errorf("Naive = %v, want empty", sys.Naive(f))
	}
	guild := sys.MaximalGuild(f)
	if !guild.Equal(types.NewSetOf(4, 0, 1, 2)) {
		t.Errorf("MaximalGuild = %v", guild)
	}
	// Beyond tolerance: nobody wise, guild empty.
	if !sys.MaximalGuild(two).IsEmpty() {
		t.Error("guild should be empty when faults exceed every fail-prone set")
	}
}

func TestNaiveProcessesAsymmetric(t *testing.T) {
	// 4 processes. p1..p3 tolerate {p4}; p4 tolerates only {p2}.
	// With F = {p4}: p1..p3 wise. With F = {p3}: nobody but... construct:
	n := 4
	f4 := types.NewSetOf(n, 3)
	f2 := types.NewSetOf(n, 1)
	fp := [][]types.Set{{f4}, {f4}, {f4}, {f2}}
	sys, err := Canonical(n, fp)
	if err != nil {
		t.Fatal(err)
	}
	faulty := types.NewSetOf(n, 3)
	wise := sys.Wise(faulty)
	if !wise.Equal(types.NewSetOf(n, 0, 1, 2)) {
		t.Errorf("Wise = %v", wise)
	}
	// Guild: p1..p3 with quorums {1,2,3} (complement of {4}) — closed.
	guild := sys.MaximalGuild(faulty)
	if !guild.Equal(types.NewSetOf(n, 0, 1, 2)) {
		t.Errorf("guild = %v", guild)
	}

	// Now fail p2: p4 is correct and tolerates {p2} → wise; p1..p3 do not
	// foresee {p2} → naive (p2 is faulty).
	faulty2 := types.NewSetOf(n, 1)
	wise2 := sys.Wise(faulty2)
	if !wise2.Equal(types.NewSetOf(n, 3)) {
		t.Errorf("Wise = %v, want {4}", wise2)
	}
	naive2 := sys.Naive(faulty2)
	if !naive2.Equal(types.NewSetOf(n, 0, 2)) {
		t.Errorf("Naive = %v, want {1, 3}", naive2)
	}
	// p4's only quorum is complement of {p2} = {1,3,4} ⊄ wise → guild empty.
	if !sys.MaximalGuild(faulty2).IsEmpty() {
		t.Errorf("guild = %v, want empty", sys.MaximalGuild(faulty2))
	}
}

func TestGuildClosureProperty(t *testing.T) {
	// Property: for any valid random system and any tolerated faulty set,
	// the maximal guild satisfies Wisdom and Closure.
	check := func(seed int64) bool {
		sys, err := RandomAsymmetric(RandomAsymmetricConfig{N: 8, NumSets: 3, MaxFault: 2, Seed: seed})
		if err != nil {
			return true // no valid system for this seed; skip
		}
		rng := rand.New(rand.NewSource(seed))
		// Pick a faulty set inside some process's fail-prone set.
		p := types.ProcessID(rng.Intn(8))
		fps := sys.FailProneSets(p)
		if len(fps) == 0 {
			return true
		}
		f := fps[rng.Intn(len(fps))]
		g := sys.MaximalGuild(f)
		for _, m := range g.Members() {
			if f.Contains(m) {
				return false // guild member faulty
			}
			if !sys.Tolerates(m, f) {
				return false // not wise
			}
			if !sys.HasQuorumWithin(m, g) {
				return false // closure violated
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestValidateDetectsViolations(t *testing.T) {
	n := 4
	// Availability violation: fail-prone set intersects every quorum.
	q := types.NewSetOf(n, 0, 1, 2)
	fp := [][]types.Set{{types.NewSetOf(n, 0)}, nil, nil, nil}
	qs := [][]types.Set{{q}, {q}, {q}, {q}}
	sys := MustNew(n, fp, qs)
	if err := sys.Validate(); err == nil {
		t.Error("expected availability violation")
	}
	// Consistency violation: two disjoint quorums.
	qa := types.NewSetOf(n, 0, 1)
	qb := types.NewSetOf(n, 2, 3)
	fp2 := [][]types.Set{{types.NewSet(n)}, {types.NewSet(n)}, {types.NewSet(n)}, {types.NewSet(n)}}
	sys2 := MustNew(n, fp2, [][]types.Set{{qa}, {qb}, {qa}, {qb}})
	if err := sys2.Validate(); err == nil {
		t.Error("expected consistency violation (empty intersection ⊆ ∅ ∈ both closures)")
	}
}

func TestB3ThresholdBoundary(t *testing.T) {
	// n=4,f=1 satisfies B3; n=3,f=1 must not (3 sets of size 1 cover P).
	sys4, err := NewThresholdExplicit(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sys4.SatisfiesB3() {
		t.Error("threshold(4,1) should satisfy B3")
	}
	var fp3 []types.Set
	Combinations(3, 1, func(s types.Set) { fp3 = append(fp3, s) })
	// Build directly (canonical quorums) without feasibility guard.
	fpc := [][]types.Set{fp3, fp3, fp3}
	sys3, err := Canonical(3, fpc)
	if err != nil {
		t.Fatal(err)
	}
	if sys3.SatisfiesB3() {
		t.Error("threshold(3,1) must violate B3")
	}
}

func TestTheorem24CanonicalEquivalence(t *testing.T) {
	// Theorem 2.4: F satisfies B3 iff an asymmetric quorum system exists;
	// the canonical system is the witness. Check on random systems: B3
	// holds ⟺ canonical validates.
	rng := rand.New(rand.NewSource(42))
	agree := 0
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(4)
		fp := make([][]types.Set, n)
		for i := 0; i < n; i++ {
			k := 1 + rng.Intn(3)
			sets := make([]types.Set, 0, k)
			for s := 0; s < k; s++ {
				f := types.NewSet(n)
				size := rng.Intn(n / 2)
				for f.Count() < size {
					c := types.ProcessID(rng.Intn(n))
					if int(c) != i {
						f.Add(c)
					}
				}
				sets = append(sets, f)
			}
			fp[i] = sets
		}
		sys, err := Canonical(n, fp)
		if err != nil {
			t.Fatal(err)
		}
		b3 := sys.SatisfiesB3()
		valid := sys.Validate() == nil
		if b3 != valid {
			t.Fatalf("trial %d: B3=%v but canonical valid=%v (system %v)", trial, b3, valid, fp)
		}
		agree++
	}
	if agree == 0 {
		t.Fatal("no trials ran")
	}
}

func TestMinimalKernels(t *testing.T) {
	// Threshold(4,1): quorums are all 3-subsets; minimal kernels are all
	// 2-subsets (f+1 = 2): C(4,2) = 6 of them.
	sys, err := NewThresholdExplicit(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ks := sys.MinimalKernels(0, 0)
	if len(ks) != 6 {
		t.Fatalf("got %d minimal kernels, want 6: %v", len(ks), ks)
	}
	for _, k := range ks {
		if k.Count() != 2 {
			t.Errorf("kernel %v has size %d, want 2", k, k.Count())
		}
		if !sys.HasKernelWithin(0, k) {
			t.Errorf("MinimalKernels returned non-kernel %v", k)
		}
	}
	// Counterexample: single quorum per process → minimal kernels are the
	// 6 singletons of that quorum.
	ce := Counterexample()
	ks1 := ce.MinimalKernels(0, 0)
	if len(ks1) != 6 {
		t.Fatalf("p1 kernels = %d, want 6", len(ks1))
	}
	for _, k := range ks1 {
		if k.Count() != 1 {
			t.Errorf("kernel %v should be singleton", k)
		}
	}
	// Limit works.
	if got := sys.MinimalKernels(0, 2); len(got) != 2 {
		t.Errorf("limit=2 returned %d kernels", len(got))
	}
}

// TestMinimalKernelsNoQuorums is the regression test for the degenerate
// recursion base case: a process with no quorums used to yield [∅],
// claiming the empty set is a kernel; it must yield no kernels at all.
func TestMinimalKernelsNoQuorums(t *testing.T) {
	sys := degenerateSystem(3, nil, [][]types.Set{nil, {types.NewSetOf(3, 1, 2)}, {types.NewSetOf(3, 1, 2)}})
	if ks := sys.MinimalKernels(0, 0); ks != nil {
		t.Fatalf("MinimalKernels on a quorum-less process = %v, want nil", ks)
	}
	// Processes that do have quorums are unaffected.
	if ks := sys.MinimalKernels(1, 0); len(ks) == 0 {
		t.Fatal("MinimalKernels vanished for a process with quorums")
	}
}

func TestKernelQuorumDuality(t *testing.T) {
	// Property: m contains a kernel for i ⟺ complement(m) contains no
	// quorum for i. (A kernel hits all quorums iff no quorum avoids m.)
	sys := Counterexample()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		m := types.NewSet(30)
		for i := 0; i < 30; i++ {
			if rng.Intn(2) == 0 {
				m.Add(types.ProcessID(i))
			}
		}
		p := types.ProcessID(rng.Intn(30))
		hasKernel := sys.HasKernelWithin(p, m)
		quorumInComplement := sys.HasQuorumWithin(p, m.Complement())
		if hasKernel == quorumInComplement {
			t.Fatalf("duality violated for %v at %v", m, p)
		}
	}
}

func TestFederatedSystemValid(t *testing.T) {
	sys, err := NewFederated(FederatedConfig{N: 12, TopTier: 7, TrustedPeers: 3, Tolerance: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(); err != nil {
		t.Fatalf("federated system invalid: %v", err)
	}
	if sys.N() != 12 {
		t.Fatalf("N = %d", sys.N())
	}
	// A faulty set of 2 top-tier members is tolerated by everyone.
	f := types.NewSetOf(12, 0, 1)
	guild := sys.MaximalGuild(f)
	if guild.IsEmpty() {
		t.Error("guild empty under tolerated top-tier faults")
	}
}

func TestRandomSystemsValid(t *testing.T) {
	asym, err := RandomAsymmetric(RandomAsymmetricConfig{N: 8, NumSets: 3, MaxFault: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := asym.Validate(); err != nil {
		t.Fatalf("random asymmetric invalid: %v", err)
	}
}

// TestRandomSystemsRejectBadConfigs: a config whose fail-prone sets
// cannot be drawn returns an error instead of looping forever or
// panicking. Each call runs under a deadline, because the unchecked
// generators hang on these inputs.
func TestRandomSystemsRejectBadConfigs(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func() (*System, error)
	}{
		{"asymmetric N=0", func() (*System, error) {
			return RandomAsymmetric(RandomAsymmetricConfig{N: 0, NumSets: 1, MaxFault: 1})
		}},
		{"asymmetric N=1", func() (*System, error) {
			return RandomAsymmetric(RandomAsymmetricConfig{N: 1, NumSets: 2, MaxFault: 1})
		}},
		{"asymmetric MaxFault=N", func() (*System, error) {
			return RandomAsymmetric(RandomAsymmetricConfig{N: 5, NumSets: 2, MaxFault: 5})
		}},
		{"asymmetric MaxFault=0", func() (*System, error) {
			return RandomAsymmetric(RandomAsymmetricConfig{N: 5, NumSets: 2, MaxFault: 0})
		}},
		{"asymmetric NumSets<0", func() (*System, error) {
			return RandomAsymmetric(RandomAsymmetricConfig{N: 5, NumSets: -1, MaxFault: 1})
		}},
	} {
		type outcome struct {
			err      error
			panicked any
		}
		done := make(chan outcome, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- outcome{panicked: p}
				}
			}()
			_, err := tc.gen()
			done <- outcome{err: err}
		}()
		select {
		case o := <-done:
			switch {
			case o.panicked != nil:
				t.Errorf("%s: panicked: %v", tc.name, o.panicked)
			case o.err == nil:
				t.Errorf("%s: returned a system, want an error", tc.name)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s: still running after 10s, want an error", tc.name)
		}
	}
}

func TestCombinations(t *testing.T) {
	var count int
	Combinations(5, 2, func(s types.Set) {
		if s.Count() != 2 {
			t.Errorf("combination %v has wrong size", s)
		}
		count++
	})
	if count != 10 {
		t.Fatalf("C(5,2) enumerated %d, want 10", count)
	}
	count = 0
	Combinations(3, 0, func(s types.Set) {
		if !s.IsEmpty() {
			t.Error("C(n,0) should yield empty set")
		}
		count++
	})
	if count != 1 {
		t.Fatalf("C(3,0) enumerated %d, want 1", count)
	}
	Combinations(3, 4, func(types.Set) { t.Error("C(3,4) should yield nothing") })
}

func TestRenderMatrixShape(t *testing.T) {
	sys := Counterexample()
	out := RenderMatrix(30, "Fail-prone system",
		func(p types.ProcessID) types.Set { return sys.Quorums(p)[0] },
		func(p types.ProcessID) types.Set { return sys.FailProneSets(p)[0] })
	if len(out) == 0 {
		t.Fatal("empty render")
	}
	// 30 rows + header rows.
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines < 31 {
		t.Fatalf("render has %d lines", lines)
	}
}

func TestDescribe(t *testing.T) {
	out := Counterexample().Describe()
	for _, want := range []string{"processes: 30", "c(Q)=6", "B3 condition: true", "valid quorum system: true", "5.00 waves"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
	// An invalid system reports the violation.
	n := 4
	qa := types.NewSetOf(n, 0, 1)
	qb := types.NewSetOf(n, 2, 3)
	fp := [][]types.Set{{types.NewSet(n)}, {types.NewSet(n)}, {types.NewSet(n)}, {types.NewSet(n)}}
	bad := MustNew(n, fp, [][]types.Set{{qa}, {qb}, {qa}, {qb}})
	if !strings.Contains(bad.Describe(), "valid quorum system: false") {
		t.Error("Describe should flag invalid systems")
	}
}

func TestUNLSystem(t *testing.T) {
	sys, err := NewUNL(UNLConfig{N: 12, ListSize: 9, Deviation: 1, Tolerance: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 12 {
		t.Fatalf("N = %d", sys.N())
	}
	if err := sys.Validate(); err != nil {
		t.Fatalf("UNL system invalid: %v", err)
	}
	if !sys.SatisfiesB3() {
		t.Fatal("UNL system should satisfy B3 with small deviation")
	}
	// Trust is genuinely heterogeneous when deviations occurred: some
	// process's quorums differ from another's.
	hetero := false
	q0 := sys.Quorums(0)
	for i := 1; i < 12; i++ {
		qi := sys.Quorums(types.ProcessID(i))
		if len(qi) != len(q0) || !qi[0].Equal(q0[0]) {
			hetero = true
			break
		}
	}
	if !hetero {
		t.Log("no deviation materialized for this seed (acceptable but unusual)")
	}
	// Two failures inside the recommended list are tolerated by all.
	f := types.NewSetOf(12, 0, 1)
	if g := sys.MaximalGuild(f); g.Count() < 8 {
		t.Fatalf("guild too small under tolerated UNL faults: %v", g)
	}
	// Parameter validation.
	if _, err := NewUNL(UNLConfig{N: 5, ListSize: 9, Tolerance: 1}); err == nil {
		t.Error("oversized list should fail")
	}
	if _, err := NewUNL(UNLConfig{N: 12, ListSize: 6, Deviation: 0, Tolerance: 2}); err == nil {
		t.Error("infeasible tolerance should fail")
	}
}

func TestUNLConsensusEndToEnd(t *testing.T) {
	// The UNL system drives the full consensus stack.
	sys, err := NewUNL(UNLConfig{N: 10, ListSize: 8, Deviation: 1, Tolerance: 2, Seed: 6})
	if err != nil {
		t.Skip("no valid UNL system for these parameters")
	}
	if sys.Validate() != nil {
		t.Skip("generated UNL system invalid for this seed")
	}
}

package quorum

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

// The direct nested-set-loop references for the word-compiled analysis
// layer. Nothing outside the tests calls them: they are the oracles of the
// differential tests in analyze_test.go and the baselines of the
// benchmarks below.

// ToleratesNaive is the direct set-loop reference implementation of
// Tolerates.
func (s *System) ToleratesNaive(i types.ProcessID, f types.Set) bool {
	for _, fp := range s.failProne[i] {
		if f.IsSubsetOf(fp) {
			return true
		}
	}
	return false
}

// ValidateNaive is the direct nested-set-loop reference implementation of
// Validate. Verdicts always agree with Validate; witness messages may name
// a different (equally real) violation because the compiled sweep orders
// fail-prone sets by cardinality.
func (s *System) ValidateNaive() error {
	// Availability.
	for i := 0; i < s.n; i++ {
		p := types.ProcessID(i)
		for _, f := range s.failProne[i] {
			ok := false
			for _, q := range s.quorums[i] {
				if !q.Intersects(f) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("quorum: availability violated for %v: no quorum disjoint from fail-prone set %v", p, f)
			}
		}
	}
	// Consistency.
	for i := 0; i < s.n; i++ {
		pi := types.ProcessID(i)
		for j := i; j < s.n; j++ {
			pj := types.ProcessID(j)
			for _, qi := range s.quorums[i] {
				for _, qj := range s.quorums[j] {
					inter := qi.Intersect(qj)
					if s.ToleratesNaive(pi, inter) && s.ToleratesNaive(pj, inter) {
						return fmt.Errorf("quorum: consistency violated for %v,%v: quorums %v and %v intersect in %v which both deem fail-prone",
							pi, pj, qi, qj, inter)
					}
				}
			}
		}
	}
	return nil
}

// SatisfiesB3Naive is the direct nested-set-loop reference implementation
// of SatisfiesB3.
func (s *System) SatisfiesB3Naive() bool {
	full := types.FullSet(s.n)
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			for _, fi := range s.failProne[i] {
				for _, fj := range s.failProne[j] {
					r := full.Subtract(fi.Union(fj))
					if s.ToleratesNaive(types.ProcessID(i), r) && s.ToleratesNaive(types.ProcessID(j), r) {
						return false
					}
				}
			}
		}
	}
	return true
}

// naiveBenchSystem is the n=30 random asymmetric system (the `experiments
// quorum -search` shape) of the root BenchmarkValidate and BenchmarkSatisfiesB3,
// which must stay ≥2× ahead of the two benchmarks below.
func naiveBenchSystem(b *testing.B) *System {
	sys, err := RandomAsymmetric(RandomAsymmetricConfig{N: 30, NumSets: 2, MaxFault: 6, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkValidateNaive(b *testing.B) {
	sys := naiveBenchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sys.ValidateNaive() != nil {
			b.Fatal("bench system must be valid")
		}
	}
}

func BenchmarkSatisfiesB3Naive(b *testing.B) {
	sys := naiveBenchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sys.SatisfiesB3Naive() {
			b.Fatal("bench system must satisfy B3")
		}
	}
}

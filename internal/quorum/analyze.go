package quorum

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/types"
)

// This file is the analysis layer: validity (Definition 2.1), the B3
// condition (Definition 2.3), kernels, and system summaries. All sweeps
// run word-parallel over the compiled Evaluator's flattened quorum and
// fail-prone words with popcount pruning. The straightforward nested-set
// loops live in naive_test.go, as the references of the differential
// tests and the benchmark comparison.

// Validate checks the two defining properties of an asymmetric Byzantine
// quorum system (Definition 2.1):
//
//   - Consistency: ∀i,j, ∀Q_i∈Q_i, ∀Q_j∈Q_j, ∀F ∈ F_i* ∩ F_j*:
//     Q_i ∩ Q_j ⊄ F. Equivalently (used here): the intersection I of any
//     two quorums must not lie inside both a fail-prone set of i and one
//     of j.
//   - Availability: ∀i, ∀F∈F_i: ∃Q∈Q_i with Q ∩ F = ∅.
//
// It returns nil if both hold, and a descriptive error naming the first
// violation otherwise.
//
// The sweep runs on the compiled evaluator: intersections are word ANDs
// into a reused scratch buffer, and a quorum pair is skipped outright when
// its intersection popcount exceeds every fail-prone bound of either
// owner. Processes with an empty fail-prone collection tolerate nothing
// and cannot participate in a consistency violation, so they are skipped.
func (s *System) Validate() error {
	e := s.Evaluator()
	// Availability: some quorum of i must be disjoint from each F ∈ F_i.
	for i := 0; i < s.n; i++ {
		for k := e.fStart[i]; k < e.fStart[i+1]; k++ {
			fw := e.fwords(k)
			ok := false
			for q := e.qStart[i]; q < e.qStart[i+1]; q++ {
				if !e.intersects(q, fw) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("quorum: availability violated for %v: no quorum disjoint from fail-prone set %v",
					types.ProcessID(i), s.failProne[i][e.fOrig[k]])
			}
		}
	}
	// Consistency. I = Q_i ∩ Q_j violates iff I ⊆ some F∈F_i and
	// I ⊆ some F'∈F_j (then I ∈ F_i* ∩ F_j*).
	scratch := make([]uint64, e.words)
	for i := 0; i < s.n; i++ {
		if e.fStart[i+1] == e.fStart[i] {
			continue // F_i = ∅: i tolerates nothing
		}
		for j := i; j < s.n; j++ {
			if e.fStart[j+1] == e.fStart[j] {
				continue
			}
			bound := e.fMax[i]
			if e.fMax[j] < bound {
				bound = e.fMax[j]
			}
			for qi := e.qStart[i]; qi < e.qStart[i+1]; qi++ {
				qiw := e.qwords(qi)
				for qj := e.qStart[j]; qj < e.qStart[j+1]; qj++ {
					qjw := e.qwords(qj)
					c := int32(0)
					for w := range scratch {
						x := qiw[w] & qjw[w]
						scratch[w] = x
						c += int32(bits.OnesCount64(x))
					}
					if c > bound {
						continue // intersection exceeds every fail-prone bound
					}
					if e.toleratesWords(types.ProcessID(i), scratch, c) && e.toleratesWords(types.ProcessID(j), scratch, c) {
						a := s.quorums[i][qi-e.qStart[i]]
						b := s.quorums[j][qj-e.qStart[j]]
						return fmt.Errorf("quorum: consistency violated for %v,%v: quorums %v and %v intersect in %v which both deem fail-prone",
							types.ProcessID(i), types.ProcessID(j), a, b, a.Intersect(b))
					}
				}
			}
		}
	}
	return nil
}

// SatisfiesB3 checks the B3 condition (Definition 2.3) on the fail-prone
// system: ∀i,j, ∀F_i∈F_i, ∀F_j∈F_j, ∀F_ij ∈ F_i* ∩ F_j*:
// P ⊄ F_i ∪ F_j ∪ F_ij.
//
// The quantifier over the common downward closure reduces to a membership
// test: P ⊆ F_i ∪ F_j ∪ F_ij for some common F_ij iff the residue
// R = P \ (F_i ∪ F_j) itself lies in F_i* ∩ F_j*.
func (s *System) SatisfiesB3() bool {
	_, _, _, _, found := s.b3Violation()
	return !found
}

// b3Violation locates the first violating tuple of the B3 condition, or
// reports found=false when the condition holds. The sweep is the compiled
// counterpart of SatisfiesB3Naive: the residue R = P \ (F_a ∪ F_b) is
// computed as word operations into a scratch buffer, pairs are pruned by
// the popcount lower bound |R| ≥ n − |F_a| − |F_b| (fail-prone sets are
// sorted by descending size, so the inner loop breaks at the first pair
// whose residue is provably too large for either owner's bound), and the
// condition's symmetry in (a, b) halves the process pairs.
func (s *System) b3Violation() (i, j types.ProcessID, fi, fj types.Set, found bool) {
	e := s.Evaluator()
	scratch := make([]uint64, e.words)
	for a := 0; a < s.n; a++ {
		if e.fStart[a+1] == e.fStart[a] {
			continue // F_a = ∅: a tolerates no residue
		}
		for b := a; b < s.n; b++ {
			if e.fStart[b+1] == e.fStart[b] {
				continue
			}
			bound := e.fMax[a]
			if e.fMax[b] < bound {
				bound = e.fMax[b]
			}
			for ka := e.fStart[a]; ka < e.fStart[a+1]; ka++ {
				faw := e.fwords(ka)
				for kb := e.fStart[b]; kb < e.fStart[b+1]; kb++ {
					if int32(s.n)-e.fSize[ka]-e.fSize[kb] > bound {
						break // residues only grow as |F_b| shrinks
					}
					fbw := e.fwords(kb)
					c := int32(0)
					for w := range scratch {
						x := e.fullWords[w] &^ (faw[w] | fbw[w])
						scratch[w] = x
						c += int32(bits.OnesCount64(x))
					}
					if c > bound {
						continue
					}
					if e.toleratesWords(types.ProcessID(a), scratch, c) && e.toleratesWords(types.ProcessID(b), scratch, c) {
						return types.ProcessID(a), types.ProcessID(b),
							s.failProne[a][e.fOrig[ka]], s.failProne[b][e.fOrig[kb]], true
					}
				}
			}
		}
	}
	return 0, 0, types.Set{}, types.Set{}, false
}

// Analysis is the batch result of AnalyzeSystem: every per-system quantity
// the search paths need, computed over a single compiled evaluator.
type Analysis struct {
	N              int
	TotalQuorums   int
	SmallestQuorum int    // c(Q); 0 when the system has no quorums
	Valid          bool   // Definition 2.1 (consistency + availability)
	Err            error  // the Validate violation witness when !Valid
	B3             bool   // Definition 2.3
	B3Witness      string // human-readable witness when !B3
}

// AnalyzeSystem runs Validate, SatisfiesB3 and the quorum-size summary
// over a single compiled evaluator: one compilation per system, one
// consistency sweep and one B3 sweep. Search loops over many candidate
// systems (`experiments quorum -search`, harness.ExpSmallSystems) call this
// instead of stacking the per-property methods.
func AnalyzeSystem(s *System) Analysis {
	e := s.Evaluator()
	a := Analysis{
		N:              s.n,
		TotalQuorums:   int(e.qStart[s.n]),
		SmallestQuorum: e.minQ,
	}
	a.Err = s.Validate()
	a.Valid = a.Err == nil
	if i, j, fi, fj, found := s.b3Violation(); found {
		a.B3Witness = fmt.Sprintf("B3 violated for %v,%v: P ⊆ %v ∪ %v ∪ F for some common fail-prone F", i, j, fi, fj)
	} else {
		a.B3 = true
	}
	return a
}

// MinimalKernels enumerates the minimal kernels of process i: the minimal
// sets that intersect every quorum in Q_i. The search is exponential in the
// worst case; limit caps the number of kernels returned (0 means no cap).
// Intended for tooling and tests on small systems.
//
// A process with no quorums has no meaningful kernels (the empty set would
// vacuously intersect everything), so the result is nil rather than [∅].
func (s *System) MinimalKernels(i types.ProcessID, limit int) []types.Set {
	quorums := s.quorums[i]
	if len(quorums) == 0 {
		return nil
	}
	var out []types.Set
	seen := map[string]bool{}

	var rec func(depth int, hit types.Set)
	rec = func(depth int, hit types.Set) {
		if limit > 0 && len(out) >= limit {
			return
		}
		// Find first quorum not yet hit.
		next := -1
		for k := depth; k < len(quorums); k++ {
			if !quorums[k].Intersects(hit) {
				next = k
				break
			}
		}
		if next == -1 {
			// hit covers everything; minimalize by dropping redundant members.
			m := minimalizeKernel(quorums, hit)
			key := m.Key()
			if !seen[key] {
				seen[key] = true
				out = append(out, m)
			}
			return
		}
		for _, p := range quorums[next].Members() {
			h2 := hit.Clone()
			h2.Add(p)
			rec(next+1, h2)
		}
	}
	rec(0, types.NewSet(s.n))
	return out
}

// minimalizeKernel removes members of hit that are not needed to intersect
// every quorum.
func minimalizeKernel(quorums []types.Set, hit types.Set) types.Set {
	m := hit.Clone()
	for _, p := range hit.Members() {
		m.Remove(p)
		ok := true
		for _, q := range quorums {
			if !q.Intersects(m) {
				ok = false
				break
			}
		}
		if !ok {
			m.Add(p)
		}
	}
	return m
}

// RenderMatrix renders a Figure 1 style matrix: one row per process (from
// p_n at the top down to p_1, matching the paper's layout), one column per
// process, with 'Q' marking members of rowFn(p) and 'F' marking members of
// altFn(p) (either may be nil). Used to regenerate Figures 1–4.
func RenderMatrix(n int, header string, rowFn, altFn func(types.ProcessID) types.Set) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString("\n     ")
	for c := 1; c <= n; c++ {
		fmt.Fprintf(&b, "%3d", c)
	}
	b.WriteString("\n")
	for r := n - 1; r >= 0; r-- {
		p := types.ProcessID(r)
		fmt.Fprintf(&b, "%4d ", r+1)
		var q, f types.Set
		if rowFn != nil {
			q = rowFn(p)
		}
		if altFn != nil {
			f = altFn(p)
		}
		for c := 0; c < n; c++ {
			cell := "  ."
			cp := types.ProcessID(c)
			if rowFn != nil && q.Contains(cp) {
				cell = "  Q"
			}
			if altFn != nil && f.Contains(cp) {
				cell = "  F"
			}
			b.WriteString(cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Describe returns a human-readable summary of a system: sizes, the B3
// verdict, validity, and the Lemma 4.4 bound. Used by `experiments quorum` and
// handy in tests. All quantities come from a single AnalyzeSystem pass.
func (s *System) Describe() string {
	a := AnalyzeSystem(s)
	var b strings.Builder
	fmt.Fprintf(&b, "processes: %d\n", s.n)
	if a.TotalQuorums == 0 {
		// Without the guard this used to print the garbage sentinel range
		// "sizes n+1..0" (and c(Q)=n+1) for an empty quorum collection.
		b.WriteString("quorums: 0 total, sizes -\n")
	} else {
		e := s.Evaluator()
		maxQ := 0
		for k := int32(0); k < int32(a.TotalQuorums); k++ {
			if c := int(e.qSize[k]); c > maxQ {
				maxQ = c
			}
		}
		fmt.Fprintf(&b, "quorums: %d total, sizes %d..%d, c(Q)=%d\n", a.TotalQuorums, a.SmallestQuorum, maxQ, a.SmallestQuorum)
	}
	fmt.Fprintf(&b, "B3 condition: %v\n", a.B3)
	if !a.Valid {
		fmt.Fprintf(&b, "valid quorum system: false (%v)\n", a.Err)
	} else {
		b.WriteString("valid quorum system: true\n")
	}
	if a.SmallestQuorum > 0 {
		fmt.Fprintf(&b, "Lemma 4.4 commit bound |P|/c(Q): %.2f waves\n",
			float64(s.n)/float64(a.SmallestQuorum))
	} else {
		b.WriteString("Lemma 4.4 commit bound |P|/c(Q): n/a (no quorums)\n")
	}
	return b.String()
}

package gather

import (
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// This file implements the abstract round-merge execution of the paper's
// Listing 1 (Appendix A): the information-flow skeleton of Algorithm 2
// under the adversarial schedule in which every process hears from exactly
// one of its quorums per round. It regenerates Figures 2–4 and verifies
// Lemma 3.2 purely with set algebra.

// QuorumChoice selects, for each process, the quorum it hears from in each
// round of the abstract execution. CanonicalChoice picks the first quorum,
// matching the single-quorum counterexample system.
type QuorumChoice func(p types.ProcessID) types.Set

// CanonicalChoice returns each process's first quorum.
func CanonicalChoice(sys *quorum.System) QuorumChoice {
	return func(p types.ProcessID) types.Set { return sys.Quorums(p)[0] }
}

// AdversarialSchedule is Appendix A's message schedule: each process hears
// the members of its first quorum (CanonicalChoice's pick) after 1 time
// unit and everyone else after 100000, so the rounds of a gather run the
// abstract execution RoundSets computes. A process with no quorum hears
// everyone slowly.
func AdversarialSchedule(sys *quorum.System) sim.FavoredLinksLatency {
	fav := make([]types.Set, sys.N())
	for i := range fav {
		if qs := sys.Quorums(types.ProcessID(i)); len(qs) > 0 {
			fav[i] = qs[0]
		} else {
			fav[i] = types.NewSet(sys.N())
		}
	}
	return sim.FavoredLinksLatency{Favored: fav, Fast: 1, Slow: 100000}
}

// RoundSets computes the per-process known-value sets after `rounds`
// rounds of quorum merging:
//
//	know_0[i] = {i}
//	know_r[i] = ∪_{j ∈ choice(i)} know_{r-1}[j]
//
// With rounds=1 this is the paper's S sets (Figure 2), rounds=2 the T sets
// (Figure 3), rounds=3 the U sets (Figure 4). Values are the proposing
// process IDs themselves, exactly as in Listing 1.
func RoundSets(n int, choice QuorumChoice, rounds int) []types.Set {
	know := make([]types.Set, n)
	for i := range know {
		know[i] = types.NewSetOf(n, types.ProcessID(i))
	}
	for r := 0; r < rounds; r++ {
		next := make([]types.Set, n)
		for i := range next {
			acc := types.NewSet(n)
			choice(types.ProcessID(i)).ForEach(func(j types.ProcessID) bool {
				acc.UnionInPlace(know[j])
				return true
			})
			next[i] = acc
		}
		know = next
	}
	return know
}

// CommonCoreCandidates reports which processes' S sets (round-1 sets) are
// contained in every process's final set — the paper's `all_candidates`
// computation at the end of Listing 1. The execution satisfies the common
// core property iff the result is non-empty.
func CommonCoreCandidates(n int, choice QuorumChoice, finals []types.Set) types.Set {
	sSets := RoundSets(n, choice, 1)
	candidates := types.FullSet(n)
	for j := 0; j < n; j++ {
		sj := sSets[j]
		containedInAll := true
		for i := 0; i < n; i++ {
			if !sj.IsSubsetOf(finals[i]) {
				containedInAll = false
				break
			}
		}
		if !containedInAll {
			candidates.Remove(types.ProcessID(j))
		}
	}
	return candidates
}

// RoundsToCommonCore returns the smallest number of merge rounds after
// which a common core exists under the given choice, searching up to
// maxRounds; it returns maxRounds+1, false if none is reached. The paper
// (Appendix A) notes that quorum consistency forces a common core within
// log₂(n) rounds of this process.
func RoundsToCommonCore(n int, choice QuorumChoice, maxRounds int) (int, bool) {
	for r := 1; r <= maxRounds; r++ {
		finals := RoundSets(n, choice, r)
		if !CommonCoreCandidates(n, choice, finals).IsEmpty() {
			return r, true
		}
	}
	return maxRounds + 1, false
}

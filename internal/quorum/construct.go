package quorum

import (
	"fmt"
	"math/rand"

	"repro/internal/types"
)

// Canonical builds the canonical asymmetric quorum system for a fail-prone
// system: Q_i = { P \ F : F ∈ F_i }. By Theorem 2.4, if the fail-prone
// system satisfies B3 the result is a valid asymmetric quorum system.
func Canonical(n int, failProne [][]types.Set) (*System, error) {
	quorums := make([][]types.Set, n)
	for i := range failProne {
		qs := make([]types.Set, 0, len(failProne[i]))
		for _, f := range failProne[i] {
			qs = append(qs, f.Complement())
		}
		quorums[i] = qs
	}
	return New(n, failProne, quorums)
}

// NewSymmetric builds a System in which every process shares the same
// fail-prone collection and the canonical quorums derived from it.
func NewSymmetric(n int, failProne []types.Set) (*System, error) {
	fp := make([][]types.Set, n)
	for i := range fp {
		fp[i] = failProne
	}
	return Canonical(n, fp)
}

// Combinations invokes fn with every k-subset of {0..n-1} as a Set. It is
// exported for tests and tooling; cost is C(n,k) so callers must keep n
// small.
func Combinations(n, k int, fn func(types.Set)) {
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			s := types.NewSet(n)
			for _, i := range idx {
				s.Add(types.ProcessID(i))
			}
			fn(s)
			return
		}
		for i := start; i <= n-(k-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	if k == 0 {
		fn(types.NewSet(n))
		return
	}
	if k > n || k < 0 {
		return
	}
	rec(0, 0)
}

// NewThresholdExplicit materializes the threshold system (all f-subsets as
// fail-prone sets, canonical quorums) as an explicit System. It is meant
// for small n where C(n,f) is manageable; use Threshold otherwise.
func NewThresholdExplicit(n, f int) (*System, error) {
	if n <= 3*f {
		return nil, fmt.Errorf("quorum: threshold system needs n > 3f, got n=%d f=%d", n, f)
	}
	var fp []types.Set
	Combinations(n, f, func(s types.Set) { fp = append(fp, s) })
	return NewSymmetric(n, fp)
}

// counterexampleQuorums are the 30 canonical quorums of the paper's
// Figure 1 / Listing 1 counterexample (1-based process numbers, exactly as
// printed in the paper's Appendix A).
var counterexampleQuorums = map[int][]int{
	1:  {1, 2, 3, 4, 5, 16},
	2:  {1, 6, 7, 8, 9, 17},
	3:  {1, 2, 3, 4, 5, 18},
	4:  {1, 6, 7, 8, 9, 19},
	5:  {2, 6, 10, 11, 12, 20},
	6:  {4, 8, 11, 13, 15, 21},
	7:  {4, 8, 11, 13, 15, 22},
	8:  {5, 9, 12, 14, 15, 23},
	9:  {5, 9, 12, 14, 15, 24},
	10: {4, 8, 11, 13, 15, 25},
	11: {1, 6, 7, 8, 9, 26},
	12: {2, 6, 10, 11, 12, 27},
	13: {3, 7, 10, 13, 14, 28},
	14: {3, 7, 10, 13, 14, 29},
	15: {5, 9, 12, 14, 15, 30},
	16: {1, 2, 3, 4, 5, 16},
	17: {1, 2, 3, 4, 5, 16},
	18: {1, 2, 3, 4, 5, 16},
	19: {1, 2, 3, 4, 5, 16},
	20: {1, 6, 7, 8, 9, 27},
	21: {1, 6, 7, 8, 9, 27},
	22: {1, 6, 7, 8, 9, 20},
	23: {2, 6, 10, 11, 12, 30},
	24: {2, 6, 10, 11, 12, 30},
	25: {1, 6, 7, 8, 9, 22},
	26: {1, 2, 3, 4, 5, 16},
	27: {1, 6, 7, 8, 9, 27},
	28: {1, 2, 3, 4, 5, 16},
	29: {1, 2, 3, 4, 5, 29},
	30: {2, 6, 10, 11, 12, 30},
}

// CounterexampleN is the number of processes in the paper's Figure 1
// counterexample system.
const CounterexampleN = 30

// Counterexample returns the 30-process asymmetric quorum system of the
// paper's Figure 1 and Appendix A: each process has exactly one quorum (as
// listed in Listing 1) and the single canonical fail-prone set that is its
// complement. Running the quorum-replacement gather (Algorithm 2) on this
// system reaches no common core (Lemma 3.2).
func Counterexample() *System {
	n := CounterexampleN
	fp := make([][]types.Set, n)
	qs := make([][]types.Set, n)
	for p := 1; p <= n; p++ {
		q := types.NewSet(n)
		for _, m := range counterexampleQuorums[p] {
			q.Add(types.ProcessID(m - 1))
		}
		qs[p-1] = []types.Set{q}
		fp[p-1] = []types.Set{q.Complement()}
	}
	return MustNew(n, fp, qs)
}

// FederatedConfig describes a Stellar-flavoured tiered trust topology used
// by the federated example and the Lemma 4.4 sweeps.
//
// Processes are split into a top tier of TopTier processes and a remainder.
// Every process trusts the top tier plus TrustedPeers random other
// processes; its fail-prone sets are all subsets of its trusted slice of
// size at most Tolerance, and its quorums are canonical.
type FederatedConfig struct {
	N            int
	TopTier      int
	TrustedPeers int
	Tolerance    int
	Seed         int64
}

// NewFederated generates a federated asymmetric system from cfg. The
// construction keeps each process's fail-prone collection small (one set
// per tolerated combination of top-tier members up to Tolerance), so the
// result stays tractable while exhibiting genuinely heterogeneous trust.
// The returned system is NOT guaranteed to satisfy B3 for arbitrary
// parameters; callers that need soundness should Validate it (the tests
// pin parameter choices that do).
func NewFederated(cfg FederatedConfig) (*System, error) {
	if cfg.TopTier > cfg.N || cfg.TopTier <= 0 {
		return nil, fmt.Errorf("quorum: top tier %d out of range for n=%d", cfg.TopTier, cfg.N)
	}
	if cfg.Tolerance < 0 || 3*cfg.Tolerance >= cfg.TopTier {
		return nil, fmt.Errorf("quorum: need topTier > 3*tolerance, got %d and %d", cfg.TopTier, cfg.Tolerance)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N
	fp := make([][]types.Set, n)

	for i := 0; i < n; i++ {
		// Trusted slice: the top tier plus TrustedPeers random others.
		slice := types.NewSet(n)
		for t := 0; t < cfg.TopTier; t++ {
			slice.Add(types.ProcessID(t))
		}
		slice.Add(types.ProcessID(i))
		for len(slice.Members()) < min(n, cfg.TopTier+cfg.TrustedPeers+1) {
			slice.Add(types.ProcessID(rng.Intn(n)))
		}
		// Fail-prone sets: every Tolerance-subset of the top tier, unioned
		// with all processes outside the trusted slice (a process never
		// relies on processes it does not trust, so they may all fail).
		outside := slice.Complement()
		var sets []types.Set
		Combinations(cfg.TopTier, cfg.Tolerance, func(topFault types.Set) {
			f := outside.Clone()
			for _, m := range topFault.Members() {
				// topFault is over universe TopTier; re-embed into n.
				f.Add(m)
			}
			f.Remove(types.ProcessID(i)) // a process trusts itself
			sets = append(sets, f)
		})
		fp[i] = sets
	}
	return Canonical(n, fp)
}

// RandomAsymmetricConfig controls RandomAsymmetric.
type RandomAsymmetricConfig struct {
	N        int
	NumSets  int // fail-prone sets per process
	MaxFault int
	Seed     int64
}

// RandomAsymmetric generates a random asymmetric system: each process draws
// its own NumSets fail-prone sets of size at most MaxFault (never including
// itself), quorums canonical. Retries with derived seeds until the system
// passes Validate, up to 128 attempts. It needs 1 <= MaxFault <= N-1 and
// NumSets >= 0.
func RandomAsymmetric(cfg RandomAsymmetricConfig) (*System, error) {
	// The draw loop adds distinct processes other than i until a set
	// reaches its size, so a size above N-1 would never terminate.
	switch {
	case cfg.N < 1:
		return nil, fmt.Errorf("quorum: random system needs N >= 1, got %d", cfg.N)
	case cfg.NumSets < 0:
		return nil, fmt.Errorf("quorum: random system needs NumSets >= 0, got %d", cfg.NumSets)
	case cfg.MaxFault < 1:
		return nil, fmt.Errorf("quorum: random system needs MaxFault >= 1, got %d", cfg.MaxFault)
	case cfg.MaxFault > cfg.N-1:
		return nil, fmt.Errorf("quorum: random system with N=%d: MaxFault %d exceeds the %d processes a fail-prone set may hold", cfg.N, cfg.MaxFault, cfg.N-1)
	}
	var lastViolation error
	for attempt := 0; attempt < 128; attempt++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(attempt)*104729))
		fp := make([][]types.Set, cfg.N)
		for i := 0; i < cfg.N; i++ {
			sets := make([]types.Set, 0, cfg.NumSets)
			for k := 0; k < cfg.NumSets; k++ {
				size := 1 + rng.Intn(cfg.MaxFault)
				s := types.NewSet(cfg.N)
				for s.Count() < size {
					c := types.ProcessID(rng.Intn(cfg.N))
					if int(c) == i {
						continue
					}
					s.Add(c)
				}
				sets = append(sets, s)
			}
			fp[i] = sets
		}
		sys, err := Canonical(cfg.N, fp)
		if err != nil {
			return nil, err
		}
		if lastViolation = sys.Validate(); lastViolation == nil {
			return sys, nil
		}
	}
	return nil, fmt.Errorf("quorum: no valid random asymmetric system found for %+v (last violation: %v)", cfg, lastViolation)
}

// UNLConfig describes a Ripple-flavoured trust topology (paper §1:
// "In Ripple, each participant must declare ... a list of other
// participating nodes that it trusts and from which it will consider
// votes"). All processes start from a recommended UNL of ListSize
// processes; each may swap out up to Deviation members for others, and
// tolerates up to Tolerance failures inside its list.
type UNLConfig struct {
	N         int
	ListSize  int
	Deviation int
	Tolerance int
	Seed      int64
}

// NewUNL generates a Ripple-style system from cfg: fail-prone sets are
// every Tolerance-subset of the process's UNL together with everything
// outside it; quorums are canonical. The recommended list is processes
// 0..ListSize-1. Small deviations keep the pairwise list overlap high,
// which is what Ripple's safety analysis requires; large deviations can
// break B3 — Validate before use (the tests pin safe parameters).
func NewUNL(cfg UNLConfig) (*System, error) {
	if cfg.ListSize > cfg.N || cfg.ListSize <= 0 {
		return nil, fmt.Errorf("quorum: list size %d out of range for n=%d", cfg.ListSize, cfg.N)
	}
	if cfg.Tolerance < 0 || 3*cfg.Tolerance >= cfg.ListSize-cfg.Deviation {
		return nil, fmt.Errorf("quorum: need listSize-deviation > 3*tolerance, got %d-%d and %d",
			cfg.ListSize, cfg.Deviation, cfg.Tolerance)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N
	fp := make([][]types.Set, n)
	for i := 0; i < n; i++ {
		// Start from the recommended list, always including oneself.
		unl := types.NewSet(n)
		for m := 0; m < cfg.ListSize; m++ {
			unl.Add(types.ProcessID(m))
		}
		unl.Add(types.ProcessID(i))
		// Apply up to Deviation random swaps.
		for d := 0; d < cfg.Deviation; d++ {
			members := unl.Members()
			out := members[rng.Intn(len(members))]
			if int(out) == i {
				continue
			}
			in := types.ProcessID(rng.Intn(n))
			if unl.Contains(in) || int(in) == i {
				continue
			}
			unl.Remove(out)
			unl.Add(in)
		}
		outside := unl.Complement()
		var sets []types.Set
		// Fail-prone: every Tolerance-subset of the UNL (minus self),
		// plus everything outside the UNL.
		unlOthers := unl.Clone()
		unlOthers.Remove(types.ProcessID(i))
		others := unlOthers.Members()
		Combinations(len(others), cfg.Tolerance, func(idx types.Set) {
			f := outside.Clone()
			for _, k := range idx.Members() {
				f.Add(others[k])
			}
			sets = append(sets, f)
		})
		fp[i] = sets
	}
	return Canonical(n, fp)
}

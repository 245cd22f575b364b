// Package quorum implements the trust structures of the paper: symmetric and
// asymmetric fail-prone systems, Byzantine quorum systems, kernels, the B3
// existence condition, and guild computation (paper §2.2–2.3; Alpos et al.,
// "Asymmetric distributed trust").
//
// Protocol code depends only on the narrow Assumption interface; explicit
// systems (System) additionally support analysis: validation, guild and
// kernel computation, and rendering.
//
// Predicate evaluation is served by the incremental engine in engine.go:
// explicit systems compile lazily into an Evaluator (flattened quorum
// words, popcounts, inverted indexes), and protocol tallies hold Tracker
// values that answer HasQuorum/HasKernel in O(1) after an O(words)
// Add(member) update instead of re-scanning Q_i on every delivery. See the
// engine.go file comment for the design and complexity bounds.
//
// The analysis layer (analyze.go) runs on the same compiled form: the
// evaluator additionally flattens the fail-prone system into contiguous
// popcount-ready words sorted by descending cardinality, and Validate,
// SatisfiesB3, Tolerates and Wise execute as word-parallel subset and
// intersection sweeps with popcount pruning. Search loops over many
// candidate systems use the batch AnalyzeSystem API, which computes
// validity, B3, c(Q) and a violation witness in one pass per system. The
// straightforward nested-set loops survive only in the tests
// (naive_test.go), as the references for differential testing and
// benchmarking.
package quorum

import (
	"fmt"
	"sync"

	"repro/internal/types"
)

// Assumption is the minimal interface protocols need from a trust structure.
//
// HasQuorumWithin(i, m) reports whether m contains a quorum for process i
// (∃Q ∈ Q_i : Q ⊆ m) — the "received messages from one of its quorums"
// trigger used throughout the paper's algorithms.
//
// HasKernelWithin(i, m) reports whether m contains a kernel for process i,
// which holds exactly when m intersects every quorum of i. This is the
// Bracha-style amplification trigger (paper Algorithm 3 line 55).
type Assumption interface {
	// N returns the number of processes in the system.
	N() int
	// HasQuorumWithin reports whether m contains a quorum for process i.
	HasQuorumWithin(i types.ProcessID, m types.Set) bool
	// HasKernelWithin reports whether m contains a kernel for process i.
	HasKernelWithin(i types.ProcessID, m types.Set) bool
}

// System is an explicit asymmetric trust structure: a fail-prone collection
// F_i and a quorum collection Q_i per process. Symmetric (including
// threshold) systems are the special case where all processes share the
// same collections.
type System struct {
	n         int
	failProne [][]types.Set // failProne[i] = F_i
	quorums   [][]types.Set // quorums[i] = Q_i

	// compiled is the lazily-built predicate engine (see engine.go); it is
	// shared by every node of a run, so the build is guarded by a Once.
	compileOnce sync.Once
	compiled    *Evaluator
}

var _ Assumption = (*System)(nil)

// New builds a System from per-process fail-prone and quorum collections.
// Both slices must have length n and every member set must be over a
// universe of n processes. New copies the top-level slices but shares the
// (immutable by convention) member sets.
func New(n int, failProne, quorums [][]types.Set) (*System, error) {
	if len(failProne) != n || len(quorums) != n {
		return nil, fmt.Errorf("quorum: need %d collections, got %d fail-prone and %d quorum", n, len(failProne), len(quorums))
	}
	fp := make([][]types.Set, n)
	qs := make([][]types.Set, n)
	for i := 0; i < n; i++ {
		for _, f := range failProne[i] {
			if f.UniverseSize() != n {
				return nil, fmt.Errorf("quorum: fail-prone set for p%d has universe %d, want %d", i+1, f.UniverseSize(), n)
			}
		}
		for _, q := range quorums[i] {
			if q.UniverseSize() != n {
				return nil, fmt.Errorf("quorum: quorum for p%d has universe %d, want %d", i+1, q.UniverseSize(), n)
			}
			if q.IsEmpty() {
				return nil, fmt.Errorf("quorum: empty quorum for p%d", i+1)
			}
		}
		if len(quorums[i]) == 0 {
			return nil, fmt.Errorf("quorum: no quorums for p%d", i+1)
		}
		fp[i] = append([]types.Set(nil), failProne[i]...)
		qs[i] = append([]types.Set(nil), quorums[i]...)
	}
	return &System{n: n, failProne: fp, quorums: qs}, nil
}

// MustNew is New but panics on error; for package-internal constructors and
// tests with known-good inputs.
func MustNew(n int, failProne, quorums [][]types.Set) *System {
	s, err := New(n, failProne, quorums)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the number of processes.
func (s *System) N() int { return s.n }

// FailProneSets returns F_i. The returned slice must not be modified.
func (s *System) FailProneSets(i types.ProcessID) []types.Set { return s.failProne[i] }

// Quorums returns Q_i. The returned slice must not be modified.
func (s *System) Quorums(i types.ProcessID) []types.Set { return s.quorums[i] }

// HasQuorumWithin reports whether m contains some quorum of process i.
// One-shot queries go through the compiled evaluator; growing tallies
// should hold a Tracker instead (see engine.go).
func (s *System) HasQuorumWithin(i types.ProcessID, m types.Set) bool {
	if m.UniverseSize() != s.n {
		panic(fmt.Sprintf("quorum: universe mismatch %d vs %d", m.UniverseSize(), s.n))
	}
	return s.Evaluator().HasQuorumWithin(i, m)
}

// HasKernelWithin reports whether m contains a kernel for process i, i.e.
// whether m intersects every quorum of i.
func (s *System) HasKernelWithin(i types.ProcessID, m types.Set) bool {
	if m.UniverseSize() != s.n {
		panic(fmt.Sprintf("quorum: universe mismatch %d vs %d", m.UniverseSize(), s.n))
	}
	return s.Evaluator().HasKernelWithin(i, m)
}

// Tolerates reports whether F ∈ F_i*, i.e. process i correctly foresees the
// failure of every process in f (f is contained in one of i's fail-prone
// sets). The check runs on the evaluator's flattened fail-prone words:
// sets are ordered by descending cardinality, so the scan stops at the
// first set smaller than f.
func (s *System) Tolerates(i types.ProcessID, f types.Set) bool {
	if f.UniverseSize() != s.n {
		panic(fmt.Sprintf("quorum: universe mismatch %d vs %d", f.UniverseSize(), s.n))
	}
	return s.Evaluator().Tolerates(i, f)
}

// SmallestQuorumSize returns c(Q) = min over all processes and quorums of
// |Q|, the constant in the paper's Lemma 4.4 commit-latency bound. The
// value comes from the compiled evaluator's precomputed popcounts rather
// than recounting bits. A (degenerate) system without any quorums reports
// 0.
func (s *System) SmallestQuorumSize() int {
	return s.Evaluator().SmallestQuorumSize()
}

// Wise returns the set of wise processes for an actual faulty set f: the
// correct processes that foresee f (f ∈ F_i*). Faulty processes are never
// wise. The containment scans run on the evaluator's flattened fail-prone
// words with f's popcount computed once.
func (s *System) Wise(f types.Set) types.Set {
	if f.UniverseSize() != s.n {
		panic(fmt.Sprintf("quorum: universe mismatch %d vs %d", f.UniverseSize(), s.n))
	}
	e := s.Evaluator()
	fw := f.Words()
	fc := int32(popcount(fw))
	wise := types.NewSet(s.n)
	for i := 0; i < s.n; i++ {
		p := types.ProcessID(i)
		if f.Contains(p) {
			continue
		}
		if e.toleratesWords(p, fw, fc) {
			wise.Add(p)
		}
	}
	return wise
}

// Naive returns the set of naive processes for faulty set f: correct but
// not wise.
func (s *System) Naive(f types.Set) types.Set {
	return f.Complement().Subtract(s.Wise(f))
}

// MaximalGuild returns the maximal guild for faulty set f: the largest set
// G of wise processes such that every member has a quorum fully inside G
// (Definition 2.2). The maximal guild is unique (the union of two guilds is
// a guild), so the greatest-fixpoint computation is exact.
//
// The fixpoint runs as a worklist over the evaluator's residual state
// instead of re-testing HasQuorumWithin per member per sweep: each quorum
// carries a "still fully inside G" flag, each process the count of such
// quorums, and removing a process invalidates exactly the quorums the
// global inverted index names. Total cost is O(total quorum membership)
// instead of O(sweeps × Σ|Q_i| × words). The result may be empty.
func (s *System) MaximalGuild(f types.Set) types.Set {
	e := s.Evaluator()
	g := s.Wise(f)
	gw := g.Words()

	total := int(e.qStart[e.n])
	full := make([]bool, total)   // quorum still entirely within g
	fullCnt := make([]int32, e.n) // per process: quorums within g
	var queue []types.ProcessID   // members of g that lost all quorums
	for i := 0; i < e.n; i++ {
		for k := e.qStart[i]; k < e.qStart[i+1]; k++ {
			if e.subset(k, gw) {
				full[k] = true
				fullCnt[i]++
			}
		}
	}
	g.ForEach(func(p types.ProcessID) bool {
		if fullCnt[p] == 0 {
			queue = append(queue, p)
		}
		return true
	})
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !g.Contains(x) {
			continue
		}
		g.Remove(x)
		// Every quorum containing x (any owner) is no longer inside g.
		for _, k := range e.gInv[e.gInvOff[x]:e.gInvOff[x+1]] {
			if !full[k] {
				continue
			}
			full[k] = false
			owner := e.qOwner[k]
			fullCnt[owner]--
			if fullCnt[owner] == 0 && g.Contains(types.ProcessID(owner)) {
				queue = append(queue, types.ProcessID(owner))
			}
		}
	}
	return g
}

// Threshold is the classic symmetric threshold assumption with n processes
// of which at most f may fail: quorums are all sets of at least n-f
// processes and kernels are all sets of at least f+1 processes. It
// implements Assumption without materializing the (combinatorially many)
// explicit sets, so it scales to any n.
type Threshold struct {
	n, f int
}

var _ Assumption = Threshold{}

// NewThreshold returns the threshold assumption for n processes tolerating
// f faults. It panics unless n > 3f (the Q3/B3 feasibility condition).
func NewThreshold(n, f int) Threshold {
	if n <= 3*f {
		panic(fmt.Sprintf("quorum: threshold system needs n > 3f, got n=%d f=%d", n, f))
	}
	return Threshold{n: n, f: f}
}

// N returns the number of processes.
func (t Threshold) N() int { return t.n }

// F returns the failure threshold.
func (t Threshold) F() int { return t.f }

// QuorumSize returns n-f, the threshold quorum cardinality.
func (t Threshold) QuorumSize() int { return t.n - t.f }

// KernelSize returns f+1, the threshold kernel cardinality.
func (t Threshold) KernelSize() int { return t.f + 1 }

// HasQuorumWithin reports |m| ≥ n-f.
func (t Threshold) HasQuorumWithin(_ types.ProcessID, m types.Set) bool {
	return m.Count() >= t.n-t.f
}

// HasKernelWithin reports |m| ≥ f+1.
func (t Threshold) HasKernelWithin(_ types.ProcessID, m types.Set) bool {
	return m.Count() >= t.f+1
}

// SmallestQuorumSize returns n-f, mirroring System.SmallestQuorumSize.
func (t Threshold) SmallestQuorumSize() int { return t.n - t.f }

// HasAnyQuorumWithin reports whether m contains a quorum for at least one
// process — the "∃Q ∈ Q_j for some Q_j ∈ Q" test of the paper's commit
// rule and vertex validation (Algorithm 6 lines 140 and 148). For the
// threshold assumption every process's quorums coincide, so the first
// process's check suffices. Any Assumption other than *System and
// Threshold panics.
func HasAnyQuorumWithin(a Assumption, m types.Set) bool {
	switch t := a.(type) {
	case Threshold:
		return a.HasQuorumWithin(0, m)
	case *System:
		// One flat scan over all quorums with the popcount pre-filter,
		// instead of n per-process predicate calls.
		return t.Evaluator().HasAnyQuorumWithin(m)
	}
	panic(unsupported(a))
}

// unsupported is the panic message for an Assumption that is neither
// *System nor Threshold, the two the trackers and HasAnyQuorumWithin
// evaluate.
func unsupported(a Assumption) string {
	return fmt.Sprintf("quorum: unsupported Assumption %T", a)
}

// QuorumSizer is implemented by assumptions that know their smallest quorum
// cardinality c(Q) (used by the Lemma 4.4 experiments).
type QuorumSizer interface {
	SmallestQuorumSize() int
}

var (
	_ QuorumSizer = (*System)(nil)
	_ QuorumSizer = Threshold{}
)

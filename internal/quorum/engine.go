// The incremental quorum-predicate engine.
//
// Every protocol in this repository gates progress on the two trust
// predicates HasQuorumWithin(i, m) ("m contains one of i's quorums") and
// HasKernelWithin(i, m) ("m intersects every quorum of i"), and every
// protocol evaluates them against a tally set m that only ever GROWS — one
// process at a time, as messages are delivered. Re-scanning the quorum
// collection Q_i on each delivery makes the hot path
// O(messages × |Q_i| × words); this file reduces it to O(messages × words)
// with O(1)-amortized predicate answers:
//
//   - Evaluator is the compiled, immutable form of a System: all quorum
//     membership bitsets flattened into one contiguous []uint64, per-quorum
//     popcounts, and a member→quorums inverted index per process. One
//     Evaluator is built lazily per System (System.Evaluator) and shared by
//     every node of a run. One-shot queries (HasQuorumWithin on a set built
//     from scratch, HasAnyQuorumWithin in the DAG commit rule) run on the
//     flat arrays with a popcount pre-filter. Compiling also derives every
//     process's vote audience (Audience) from the inverted index, once per
//     System and in one backing array, so the nodes of a run share it.
//
//   - Tracker is the incremental view for one (process, tally) pair. Feed
//     it Add(member) events as the tally grows; it maintains, per quorum of
//     the process, the residual count of members still missing, plus the
//     number of quorums the tally does not intersect yet. Each Add costs
//     O(words) for the membership bit plus O(#quorums containing the
//     member) index walks — amortized over a full run, O(total quorum
//     membership) — and both predicates then answer in O(1). Both
//     predicates are monotone (supersets preserve them), so a Tracker
//     latches: once HasQuorum/HasKernel reports true it stays true.
//
//   - NewTrackers hands out k trackers whose membership words and residual
//     counts are cut from one backing array each, for a caller that keeps
//     many alive together: reliable broadcast cuts 2n at a time for the
//     pool its undelivered slots borrow an echo/ready pair from, and
//     rider.Base one per round for its vertex sources. Reset empties a
//     tracker in place, so such a caller recycles its trackers instead of
//     allocating new ones; a reset tracker answers exactly like a fresh
//     one.
//
// Complexity bounds, with W = words per bitset, Q = |Q_i|, M = total
// membership of i's quorums (Σ|Q| over Q ∈ Q_i):
//
//	naive predicate on one tally of size m:   O(Q·W) per delivery
//	tracker over a whole run of n deliveries: O(n·W + M) total
//	one-shot compiled predicate:              O(Q·W), smaller constants,
//	                                          popcount pre-filter
//
// Threshold systems do not need any of this machinery: their predicates
// are cardinality comparisons, so NewTracker hands out a trivial counting
// tracker. Each of the two Assumption types binds its own trackers.
//
// Besides the protocol predicates, the Evaluator also flattens the
// fail-prone system into contiguous popcount-ready words (sorted per
// process by descending cardinality). The analysis layer in analyze.go —
// Validate, SatisfiesB3, Tolerates, Wise, AnalyzeSystem — runs its
// subset/intersection sweeps over these arrays with popcount pruning
// instead of nested types.Set loops; see analyze.go for the algorithms.
package quorum

import (
	"math/bits"
	"sort"

	"repro/internal/types"
)

// wordBits mirrors the types.Set word width.
const wordBits = 64

// Evaluator is the compiled form of a System: flattened quorum membership
// words, per-quorum popcounts, and a member→quorums inverted index. It is
// immutable after construction and safe for concurrent use.
type Evaluator struct {
	n     int
	words int // words per process bitset

	// Quorum k (global index) occupies qWords[k*words:(k+1)*words].
	// Quorums of process i are the contiguous range qStart[i]..qStart[i+1].
	qWords []uint64
	qSize  []int32 // popcount per quorum
	qOwner []int32 // owning process per quorum
	qStart []int32 // len n+1
	minQ   int     // smallest quorum cardinality c(Q)

	// Per-process inverted index: the quorums of process i that contain
	// member p, as indices LOCAL to i (0..qStart[i+1]-qStart[i]), are
	// inv[invOff[i*n+p]:invOff[i*n+p+1]].
	invOff []int32 // len n*n+1
	inv    []int32

	// Global inverted index: ALL quorums (any owner) containing member p
	// are gInv[gInvOff[p]:gInvOff[p+1]], as global quorum indices. Used by
	// the MaximalGuild fixpoint.
	gInvOff []int32 // len n+1
	gInv    []int32

	// Fail-prone system, flattened like the quorums: fail-prone set k
	// (global index) occupies fWords[k*words:(k+1)*words], and the sets of
	// process i are the contiguous range fStart[i]..fStart[i+1], ordered by
	// DESCENDING popcount so a containment scan can stop at the first set
	// smaller than the probe. fOrig maps a compiled slot back to the index
	// in the System's original F_i (for violation witnesses) and fMax[i] is
	// the largest fail-prone cardinality of process i (0 when F_i = ∅).
	fWords []uint64
	fSize  []int32
	fStart []int32 // len n+1
	fOrig  []int32
	fMax   []int32 // len n

	// fullWords is the full process set P as words (for the B3 residue).
	fullWords []uint64

	// aud[p] is p's audience, the processes j with p ∈ U_j (the union of
	// j's quorums), in ID order, or nil when that is every process. The
	// audiences that are not nil are cut from one backing array.
	aud [][]types.ProcessID
}

// Compile builds the Evaluator for a System. Cost is O(total quorum
// membership); callers normally use System.Evaluator, which compiles once
// and caches.
func Compile(s *System) *Evaluator {
	n := s.n
	words := (n + wordBits - 1) / wordBits
	e := &Evaluator{n: n, words: words, minQ: n + 1}

	total := 0
	for i := 0; i < n; i++ {
		total += len(s.quorums[i])
	}
	e.qWords = make([]uint64, total*words)
	e.qSize = make([]int32, total)
	e.qOwner = make([]int32, total)
	e.qStart = make([]int32, n+1)
	e.invOff = make([]int32, n*n+1)
	e.gInvOff = make([]int32, n+1)

	k := 0
	for i := 0; i < n; i++ {
		e.qStart[i] = int32(k)
		for _, q := range s.quorums[i] {
			copy(e.qWords[k*words:(k+1)*words], q.Words())
			c := q.Count()
			e.qSize[k] = int32(c)
			e.qOwner[k] = int32(i)
			if c < e.minQ {
				e.minQ = c
			}
			k++
		}
	}
	e.qStart[n] = int32(k)
	if total == 0 {
		e.minQ = 0 // no quorums at all: c(Q) has no meaningful value
	}

	// Fail-prone flattening, mirroring the quorum words above.
	totalF := 0
	for i := 0; i < n; i++ {
		totalF += len(s.failProne[i])
	}
	e.fWords = make([]uint64, totalF*words)
	e.fSize = make([]int32, totalF)
	e.fOrig = make([]int32, totalF)
	e.fStart = make([]int32, n+1)
	e.fMax = make([]int32, n)
	k = 0
	for i := 0; i < n; i++ {
		e.fStart[i] = int32(k)
		order := make([]int, len(s.failProne[i]))
		for x := range order {
			order[x] = x
		}
		sort.SliceStable(order, func(a, b int) bool {
			return s.failProne[i][order[a]].Count() > s.failProne[i][order[b]].Count()
		})
		for _, oi := range order {
			f := s.failProne[i][oi]
			copy(e.fWords[k*words:(k+1)*words], f.Words())
			c := int32(f.Count())
			e.fSize[k] = c
			e.fOrig[k] = int32(oi)
			if c > e.fMax[i] {
				e.fMax[i] = c
			}
			k++
		}
	}
	e.fStart[n] = int32(k)
	e.fullWords = types.FullSet(n).Words()

	// Count index sizes, then fill (two passes keep both indexes in single
	// contiguous allocations).
	for i := 0; i < n; i++ {
		for _, q := range s.quorums[i] {
			q.ForEach(func(p types.ProcessID) bool {
				e.invOff[i*n+int(p)+1]++
				e.gInvOff[int(p)+1]++
				return true
			})
		}
	}
	for x := 1; x <= n*n; x++ {
		e.invOff[x] += e.invOff[x-1]
	}
	for x := 1; x <= n; x++ {
		e.gInvOff[x] += e.gInvOff[x-1]
	}
	e.inv = make([]int32, e.invOff[n*n])
	e.gInv = make([]int32, e.gInvOff[n])
	fill := make([]int32, n*n)
	gFill := make([]int32, n)
	for i := 0; i < n; i++ {
		base := e.qStart[i]
		for local, q := range s.quorums[i] {
			local32, global := int32(local), base+int32(local)
			q.ForEach(func(p types.ProcessID) bool {
				slot := i*n + int(p)
				e.inv[e.invOff[slot]+fill[slot]] = local32
				fill[slot]++
				e.gInv[e.gInvOff[p]+gFill[p]] = global
				gFill[p]++
				return true
			})
		}
	}
	e.compileAudiences()
	return e
}

// compileAudiences fills aud: the audience of p is the set of processes
// j with p ∈ U_j, read from the per-process index in ID order.
func (e *Evaluator) compileAudiences() {
	n := e.n
	size := make([]int, n)
	total := 0
	for p := 0; p < n; p++ {
		for j := 0; j < n; j++ {
			if e.counts(types.ProcessID(j), types.ProcessID(p)) {
				size[p]++
			}
		}
		if size[p] < n {
			total += size[p]
		}
	}
	e.aud = make([][]types.ProcessID, n)
	// Not nil even when empty, so an empty audience is never read as everyone.
	backing := make([]types.ProcessID, 0, total)
	for p := 0; p < n; p++ {
		if size[p] == n {
			continue
		}
		lo := len(backing)
		for j := 0; j < n; j++ {
			if e.counts(types.ProcessID(j), types.ProcessID(p)) {
				backing = append(backing, types.ProcessID(j))
			}
		}
		e.aud[p] = backing[lo:len(backing):len(backing)]
	}
}

// counts reports whether p lies in U_i, the union of i's quorums.
func (e *Evaluator) counts(i, p types.ProcessID) bool {
	slot := int(i)*e.n + int(p)
	return e.invOff[slot+1] > e.invOff[slot]
}

// N returns the number of processes.
func (e *Evaluator) N() int { return e.n }

// SmallestQuorumSize returns the precomputed c(Q), or 0 when the system
// has no quorums at all.
func (e *Evaluator) SmallestQuorumSize() int { return e.minQ }

// qwords returns the membership words of global quorum k.
func (e *Evaluator) qwords(k int32) []uint64 {
	return e.qWords[int(k)*e.words : (int(k)+1)*e.words]
}

// fwords returns the membership words of compiled fail-prone set k.
func (e *Evaluator) fwords(k int32) []uint64 {
	return e.fWords[int(k)*e.words : (int(k)+1)*e.words]
}

// wordsSubset reports a ⊆ b for equal-length word slices.
func wordsSubset(a, b []uint64) bool {
	for j, w := range a {
		if w&^b[j] != 0 {
			return false
		}
	}
	return true
}

// wordsIntersect reports a ∩ b ≠ ∅ for equal-length word slices.
func wordsIntersect(a, b []uint64) bool {
	for j, w := range a {
		if w&b[j] != 0 {
			return true
		}
	}
	return false
}

// toleratesWords reports whether the set with backing words mw and
// popcount mc lies in F_i* (is contained in one of i's fail-prone sets).
// Compiled fail-prone sets are sorted by descending cardinality, so the
// scan stops at the first set too small to contain the probe.
func (e *Evaluator) toleratesWords(i types.ProcessID, mw []uint64, mc int32) bool {
	for k := e.fStart[i]; k < e.fStart[i+1]; k++ {
		if e.fSize[k] < mc {
			return false
		}
		if wordsSubset(mw, e.fwords(k)) {
			return true
		}
	}
	return false
}

// Tolerates is the compiled form of System.Tolerates: f ∈ F_i*.
func (e *Evaluator) Tolerates(i types.ProcessID, f types.Set) bool {
	fw := f.Words()
	return e.toleratesWords(i, fw, int32(popcount(fw)))
}

// numQuorums returns |Q_i|.
func (e *Evaluator) numQuorums(i types.ProcessID) int {
	return int(e.qStart[i+1] - e.qStart[i])
}

// subset reports whether global quorum k is contained in the member words
// mw (which must have the evaluator's word length).
func (e *Evaluator) subset(k int32, mw []uint64) bool {
	return wordsSubset(e.qwords(k), mw)
}

// intersects reports whether global quorum k intersects the member words.
func (e *Evaluator) intersects(k int32, mw []uint64) bool {
	return wordsIntersect(e.qwords(k), mw)
}

func popcount(ws []uint64) int {
	c := 0
	for _, w := range ws {
		c += bits.OnesCount64(w)
	}
	return c
}

// HasQuorumWithin is the one-shot compiled form of the quorum predicate.
func (e *Evaluator) HasQuorumWithin(i types.ProcessID, m types.Set) bool {
	mw := m.Words()
	start, end := e.qStart[i], e.qStart[i+1]
	if end-start <= 2 {
		// The popcount pre-filter costs more than it saves for one or two
		// subset checks.
		for k := start; k < end; k++ {
			if e.subset(k, mw) {
				return true
			}
		}
		return false
	}
	mc := int32(popcount(mw))
	for k := start; k < end; k++ {
		if e.qSize[k] <= mc && e.subset(k, mw) {
			return true
		}
	}
	return false
}

// HasKernelWithin is the one-shot compiled form of the kernel predicate.
func (e *Evaluator) HasKernelWithin(i types.ProcessID, m types.Set) bool {
	mw := m.Words()
	for k := e.qStart[i]; k < e.qStart[i+1]; k++ {
		if !e.intersects(k, mw) {
			return false
		}
	}
	return true
}

// HasAnyQuorumWithin scans every quorum of every process with the popcount
// pre-filter — the "∃Q ∈ Q_j for some j" test of the commit rule and
// vertex validation.
func (e *Evaluator) HasAnyQuorumWithin(m types.Set) bool {
	mw := m.Words()
	mc := int32(popcount(mw))
	if mc < int32(e.minQ) {
		return false
	}
	for k := int32(0); k < e.qStart[e.n]; k++ {
		if e.qSize[k] <= mc && e.subset(k, mw) {
			return true
		}
	}
	return false
}

// trackerMode selects a Tracker's update rule.
type trackerMode uint8

const (
	modeCompiled  trackerMode = iota // incremental residual counts over an Evaluator
	modeThreshold                    // pure cardinality counting
)

// Tracker is the incremental predicate view for one (process, tally) pair.
// Create one with NewTracker (or many with NewTrackers) when the tally set
// is created, feed it every new member with Add, and read the two
// predicates in O(1). Trackers are monotone until Reset: once a predicate
// reports true it stays true (quorum containment and kernel intersection
// are preserved by supersets).
//
// A Tracker owns its membership set; Set exposes it read-only, so protocol
// state that previously stored a types.Set tally can store just the
// Tracker.
type Tracker struct {
	mode    trackerMode
	members types.Set
	count   int

	hasQuorum bool
	hasKernel bool

	// modeCompiled
	ev      *Evaluator
	i       types.ProcessID
	base    int32   // first global quorum index of process i
	missing []int32 // per local quorum: members not yet in the tally
	unhit   int     // local quorums the tally does not intersect yet

	// modeThreshold
	quorumSize, kernelSize int
}

// NewTracker creates the incremental tracker of process i's predicates
// over an initially empty tally. Explicit systems get the compiled
// engine and Threshold gets the trivial counting tracker.
func NewTracker(a Assumption, i types.ProcessID) *Tracker {
	t := &Tracker{members: types.NewSet(a.N())}
	a.bind(t, i, nil)
	return t
}

// NewTrackers creates k trackers of process i's predicates, each as
// NewTracker would, with their membership sets and residual counts cut
// from one backing array per kind instead of one per tracker. A caller that
// keeps many trackers alive together, and recycles them with Reset, pays
// four allocations for all of them.
func NewTrackers(a Assumption, i types.ProcessID, k int) []Tracker {
	ts := make([]Tracker, k)
	sets := types.NewSets(a.N(), k)
	nq := a.residuals(i)
	missing := make([]int32, k*nq)
	for j := range ts {
		ts[j].members = sets[j]
		a.bind(&ts[j], i, missing[j*nq:(j+1)*nq:(j+1)*nq])
	}
	return ts
}

func (s *System) bind(t *Tracker, i types.ProcessID, missing []int32) {
	e := s.Evaluator()
	if missing == nil {
		missing = make([]int32, e.numQuorums(i))
	}
	t.mode, t.ev, t.i, t.base, t.missing = modeCompiled, e, i, e.qStart[i], missing
	t.Reset()
}

func (s *System) residuals(i types.ProcessID) int { return s.Evaluator().numQuorums(i) }

func (th Threshold) bind(t *Tracker, i types.ProcessID, _ []int32) {
	t.mode, t.i, t.quorumSize, t.kernelSize = modeThreshold, i, th.QuorumSize(), th.KernelSize()
	t.Reset()
}

func (th Threshold) residuals(types.ProcessID) int { return 0 }

// Reset empties the tally, so the tracker answers like a fresh one over
// the same assumption and process. It keeps its storage and allocates
// nothing.
func (t *Tracker) Reset() {
	t.members.Clear()
	t.count = 0
	t.hasQuorum, t.hasKernel = false, false
	if t.mode == modeCompiled {
		copy(t.missing, t.ev.qSize[t.base:t.base+int32(len(t.missing))])
		t.unhit = len(t.missing)
	}
}

// Add inserts p into the tally and updates both predicates. It reports
// whether p was new; duplicate adds are O(1) no-ops.
func (t *Tracker) Add(p types.ProcessID) bool {
	if t.members.Contains(p) {
		return false
	}
	t.members.Add(p)
	t.count++
	switch t.mode {
	case modeCompiled:
		for _, local := range t.ev.quorumsOf(t.i, p) {
			rem := t.missing[local] - 1
			t.missing[local] = rem
			if rem+1 == t.ev.qSize[t.base+local] {
				t.unhit-- // first member of this quorum seen
			}
			if rem == 0 {
				t.hasQuorum = true
			}
		}
		t.hasKernel = t.unhit == 0
	case modeThreshold:
		t.hasQuorum = t.count >= t.quorumSize
		t.hasKernel = t.count >= t.kernelSize
	}
	return true
}

// quorumsOf returns the local indices of i's quorums containing p.
func (e *Evaluator) quorumsOf(i, p types.ProcessID) []int32 {
	slot := int(i)*e.n + int(p)
	return e.inv[e.invOff[slot]:e.invOff[slot+1]]
}

// HasQuorum reports whether the tally contains one of the process's
// quorums. O(1).
func (t *Tracker) HasQuorum() bool { return t.hasQuorum }

// HasQuorumWith reports whether the tally with p added would contain one
// of the process's quorums, without adding it: HasQuorumWithin(members ∪
// {p}). A threshold tracker compares count + 1; a compiled one walks the
// quorums containing p for one that misses only p. O(#quorums containing
// p), and it allocates nothing.
func (t *Tracker) HasQuorumWith(p types.ProcessID) bool {
	if t.hasQuorum || t.members.Contains(p) {
		return t.hasQuorum
	}
	switch t.mode {
	case modeCompiled:
		for _, local := range t.ev.quorumsOf(t.i, p) {
			if t.missing[local] == 1 {
				return true
			}
		}
		return false
	default:
		return t.count+1 >= t.quorumSize
	}
}

// HasKernel reports whether the tally intersects every quorum of the
// process (contains a kernel). O(1).
func (t *Tracker) HasKernel() bool { return t.hasKernel }

// Count returns the tally's cardinality.
func (t *Tracker) Count() int { return t.count }

// Contains reports tally membership.
func (t *Tracker) Contains(p types.ProcessID) bool { return t.members.Contains(p) }

// Set returns the accumulated tally. The returned set is the tracker's own
// backing storage: callers must treat it as read-only (Clone to mutate).
func (t *Tracker) Set() types.Set { return t.members }

// Evaluator returns the compiled engine for the System, building it on
// first use. The compiled form is cached and shared; concurrent callers
// are safe.
func (s *System) Evaluator() *Evaluator {
	s.compileOnce.Do(func() { s.compiled = Compile(s) })
	return s.compiled
}

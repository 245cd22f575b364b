package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// Parallel multi-seed sweeps. ---------------------------------------------
//
// A single Runner is strictly single-threaded, but executions with
// different seeds share nothing: each builds its own nodes, RNG and event
// queue. Sweep exploits that independence by fanning a per-seed closure out
// over a bounded worker pool while keeping the *observable result*
// identical to a serial loop:
//
//   - Values[i] is the closure's result for Seeds[i], regardless of which
//     worker computed it or in which order runs finished.
//   - Reduce folds values in seed order, so any aggregation (sums, merged
//     metrics, "first failing seed") is worker-count independent.
//   - A panic inside one run is caught, attributed to its seed, and
//     surfaced through Err/Panics instead of tearing down the whole sweep.
//
// The closure must be self-contained: it may share immutable inputs (a
// compiled quorum.System, a latency model) across runs but must create its
// own Runner and nodes per call.

// SeedRange returns count consecutive seeds starting at start — the usual
// input to Sweep.
func SeedRange(start int64, count int) []int64 {
	seeds := make([]int64, count)
	for i := range seeds {
		seeds[i] = start + int64(i)
	}
	return seeds
}

// SeedPanic records a panic raised while running one seed of a sweep.
// It implements error.
type SeedPanic struct {
	// Index is the seed's position in the sweep's seed slice.
	Index int
	// Seed is the offending seed itself.
	Seed int64
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (p *SeedPanic) Error() string {
	return fmt.Sprintf("sweep: seed %d panicked: %v", p.Seed, p.Value)
}

// SweepResult holds the outcome of a Sweep: per-seed values positioned by
// seed, plus any captured panics.
type SweepResult[T any] struct {
	// Seeds is the sweep's seed slice (a copy, in the order given).
	Seeds []int64
	// Values holds fn(Seeds[i]) at position i. Entries whose run panicked
	// hold T's zero value; Reduce skips them.
	Values []T

	panics   []SeedPanic // sorted by Index
	panicIdx map[int]int // seed position -> index into panics, built lazily
}

// Panics returns the captured panics in seed order.
func (r *SweepResult[T]) Panics() []SeedPanic { return r.panics }

// PanicAt returns the panic captured for the seed at the given index, or
// nil if that run completed. Lookups are O(1) via a position index built
// on first use — Reduce consults PanicAt for every seed, and a linear
// scan made panic-heavy sweeps O(seeds × panics). Like the rest of a
// SweepResult, PanicAt is for the single goroutine that owns the result.
func (r *SweepResult[T]) PanicAt(index int) *SeedPanic {
	if r.panicIdx == nil {
		r.panicIdx = make(map[int]int, len(r.panics))
		for i := range r.panics {
			r.panicIdx[r.panics[i].Index] = i
		}
	}
	i, ok := r.panicIdx[index]
	if !ok {
		return nil
	}
	return &r.panics[i]
}

// Err returns the first panic in seed order as an error, or nil if every
// run completed.
func (r *SweepResult[T]) Err() error {
	if len(r.panics) == 0 {
		return nil
	}
	return &r.panics[0]
}

// Sweep runs fn(seed) for every seed over a pool of workers goroutines
// (workers <= 0 selects GOMAXPROCS) and returns the results positioned by
// seed. The output is independent of the worker count; see the package
// comment for the determinism contract.
func Sweep[T any](seeds []int64, workers int, fn func(seed int64) T) *SweepResult[T] {
	res := &SweepResult[T]{
		Seeds:  append([]int64(nil), seeds...),
		Values: make([]T, len(seeds)),
	}
	if len(seeds) == 0 {
		return res
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}

	var (
		next    atomic.Int64
		panicMu sync.Mutex
		wg      sync.WaitGroup
	)
	runOne := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				sp := SeedPanic{Index: i, Seed: res.Seeds[i], Value: v, Stack: debug.Stack()}
				panicMu.Lock()
				res.panics = append(res.panics, sp)
				panicMu.Unlock()
			}
		}()
		res.Values[i] = fn(res.Seeds[i])
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(res.Seeds) {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	sort.Slice(res.panics, func(a, b int) bool { return res.panics[a].Index < res.panics[b].Index })
	return res
}

// Reduce folds the sweep's values in seed order: acc = f(acc, seed, value)
// for each completed run, first seed first. Runs that panicked are skipped
// (their zero values would corrupt aggregates); callers detect them via
// Err. Because the fold order is fixed by the seed slice, the result is
// identical for every worker count — including non-commutative reducers
// such as "first failing seed" or ordered CSV rows.
func Reduce[T, A any](r *SweepResult[T], init A, f func(acc A, seed int64, v T) A) A {
	acc := init
	for i, v := range r.Values {
		if r.PanicAt(i) != nil {
			continue
		}
		acc = f(acc, r.Seeds[i], v)
	}
	return acc
}

// MergeMetrics sums network metrics across runs (nil entries are skipped).
// Merging is commutative, but sweep reducers still apply it in seed order
// so the ByType map is built identically every time.
func MergeMetrics(ms ...*Metrics) *Metrics {
	out := newMetrics()
	for _, m := range ms {
		if m == nil {
			continue
		}
		out.MessagesSent += m.MessagesSent
		out.MessagesDelivered += m.MessagesDelivered
		out.MessagesDropped += m.MessagesDropped
		out.BytesSent += m.BytesSent
		out.EncodeErrors += m.EncodeErrors
		for k, v := range m.ByType {
			out.ByType[k] += v
		}
	}
	return out
}

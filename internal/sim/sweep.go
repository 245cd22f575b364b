package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Parallel multi-seed sweeps. ---------------------------------------------
//
// A single Runner is strictly single-threaded, but executions with
// different seeds share nothing: each builds its own nodes, RNG and event
// queue. Sweep runs a per-seed closure on GOMAXPROCS goroutines and
// returns what a serial loop would: the value and error of seeds[i] at
// position i, whichever goroutine ran it. A caller that folds the results
// in slice order therefore gets the same aggregate at every GOMAXPROCS.
// A panic inside one run is caught and returned as that seed's error
// instead of tearing down the whole sweep.
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
	// Seed is the offending seed.
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

// Sweep runs fn(seed) for every seed on GOMAXPROCS goroutines. values[i]
// and errs[i] belong to seeds[i]; errs[i] is nil unless that run panicked,
// in which case it holds the *SeedPanic and values[i] is T's zero value.
func Sweep[T any](seeds []int64, fn func(seed int64) T) (values []T, errs []error) {
	values = make([]T, len(seeds))
	errs = make([]error, len(seeds))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range min(runtime.GOMAXPROCS(0), len(seeds)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(seeds); i = int(next.Add(1)) - 1 {
				values[i], errs[i] = runSeed(seeds[i], fn)
			}
		}()
	}
	wg.Wait()
	return values, errs
}

// runSeed runs fn(seed), turning a panic into a *SeedPanic.
func runSeed[T any](seed int64, fn func(seed int64) T) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &SeedPanic{Seed: seed, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(seed), nil
}

// MergeMetrics sums network metrics across runs (nil entries are skipped).
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

package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/types"
)

// sweepTrace runs a ping cluster for one seed and renders everything
// observable about it — delivery times, senders, metrics — into one string,
// so worker-count comparisons are byte-level.
func sweepTrace(seed int64) string {
	nodes := newPingCluster(5)
	r := NewRunner(Config{N: 5, Seed: seed, Latency: UniformLatency{Min: 1, Max: 40}}, nodes)
	r.Run(0)
	var b strings.Builder
	for i, n := range nodes {
		pn := n.(*pingNode)
		fmt.Fprintf(&b, "node %d: times=%v froms=%v\n", i, pn.times, pn.froms)
	}
	m := r.Metrics()
	fmt.Fprintf(&b, "metrics: sent=%d delivered=%d dropped=%d bytes=%d bytype=%v\n",
		m.MessagesSent, m.MessagesDelivered, m.MessagesDropped, m.BytesSent, m.ByType)
	return b.String()
}

func TestSeedRange(t *testing.T) {
	seeds := SeedRange(10, 4)
	want := []int64{10, 11, 12, 13}
	if len(seeds) != len(want) {
		t.Fatalf("SeedRange length %d, want %d", len(seeds), len(want))
	}
	for i := range want {
		if seeds[i] != want[i] {
			t.Errorf("SeedRange[%d] = %d, want %d", i, seeds[i], want[i])
		}
	}
	if got := SeedRange(0, 0); len(got) != 0 {
		t.Errorf("empty SeedRange returned %v", got)
	}
}

func TestSweepValuesPositionedBySeed(t *testing.T) {
	seeds := []int64{7, 3, 11, 5}
	values, errs := Sweep(seeds, func(seed int64) int64 { return seed * 10 })
	if len(values) != len(seeds) || len(errs) != len(seeds) {
		t.Fatalf("got %d values and %d errors for %d seeds", len(values), len(errs), len(seeds))
	}
	for i, s := range seeds {
		if values[i] != s*10 {
			t.Errorf("values[%d] = %d, want %d", i, values[i], s*10)
		}
		if errs[i] != nil {
			t.Errorf("errs[%d] = %v for a healthy run", i, errs[i])
		}
	}
}

// forEachProcs runs f under GOMAXPROCS 1, 2 and NumCPU and restores the
// setting afterwards.
func forEachProcs(f func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

// TestSweepWorkerCountIndependence is the acceptance check of the sweep
// determinism contract: at every GOMAXPROCS the sweep returns, byte for
// byte, what a serial for loop over the seeds computes.
func TestSweepWorkerCountIndependence(t *testing.T) {
	seeds := SeedRange(1, 32)
	want := make([]string, len(seeds))
	for i, seed := range seeds {
		want[i] = sweepTrace(seed)
	}
	forEachProcs(func(procs int) {
		got, errs := Sweep(seeds, sweepTrace)
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("GOMAXPROCS=%d, seed %d: sweep differs from the serial loop:\n--- serial ---\n%s\n--- sweep ---\n%s",
					procs, seeds[i], want[i], got[i])
			}
		}
	})
}

// TestSweepPanicCaptureReportsSeed runs a panic-heavy sweep — every odd
// seed panics — and requires each panic at its own seed's position, named
// and with its stack, while the healthy runs still complete.
func TestSweepPanicCaptureReportsSeed(t *testing.T) {
	seeds := SeedRange(0, 64)
	values, errs := Sweep(seeds, func(seed int64) int64 {
		if seed%2 == 1 {
			panic(fmt.Sprintf("boom %d", seed))
		}
		return seed
	})
	for i, seed := range seeds {
		if seed%2 == 0 {
			if errs[i] != nil || values[i] != seed {
				t.Fatalf("seed %d: value %d, error %v; want %d, nil", seed, values[i], errs[i], seed)
			}
			continue
		}
		var sp *SeedPanic
		if !errors.As(errs[i], &sp) || sp.Seed != seed || len(sp.Stack) == 0 {
			t.Fatalf("seed %d: error %#v, want its *SeedPanic with a stack", seed, errs[i])
		}
		if msg := errs[i].Error(); !strings.Contains(msg, fmt.Sprintf("seed %d", seed)) || !strings.Contains(msg, "boom") {
			t.Errorf("error should name seed and panic value: %v", msg)
		}
		if values[i] != 0 {
			t.Errorf("seed %d: panicked run left value %d, want 0", seed, values[i])
		}
	}
}

// TestSweepEmptyAndOversizedPool: an empty sweep returns empty slices, and
// more Ps than seeds neither deadlocks nor runs a seed twice.
func TestSweepEmptyAndOversizedPool(t *testing.T) {
	values, errs := Sweep(nil, func(seed int64) int { return 1 })
	if len(values) != 0 || len(errs) != 0 {
		t.Errorf("empty sweep: %v, %v", values, errs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	var calls atomic.Int32
	values, _ = Sweep([]int64{1, 2}, func(seed int64) int {
		calls.Add(1)
		return int(seed)
	})
	if values[0] != 1 || values[1] != 2 || calls.Load() != 2 {
		t.Errorf("oversized pool: values %v after %d calls", values, calls.Load())
	}
}

func TestMergeMetrics(t *testing.T) {
	a := &Metrics{MessagesSent: 3, MessagesDelivered: 2, MessagesDropped: 1, BytesSent: 30, EncodeErrors: 1,
		ByType: map[string]int{"sim.ping": 3}}
	b := &Metrics{MessagesSent: 5, MessagesDelivered: 5, BytesSent: 50, EncodeErrors: 4,
		ByType: map[string]int{"sim.ping": 4, "sim.pong": 1}}
	m := MergeMetrics(a, nil, b)
	if m.MessagesSent != 8 || m.MessagesDelivered != 7 || m.MessagesDropped != 1 || m.BytesSent != 80 || m.EncodeErrors != 5 {
		t.Errorf("merged scalars = %+v", m)
	}
	if m.ByType["sim.ping"] != 7 || m.ByType["sim.pong"] != 1 {
		t.Errorf("merged ByType = %v", m.ByType)
	}
}

// TestSendDropAccounting pins the metric semantics of dropped messages:
// dropped messages contribute to MessagesDropped only — not to
// MessagesSent, BytesSent or the per-type counters.
func TestSendDropAccounting(t *testing.T) {
	nodes := newPingCluster(4)
	plane := keepPlane(func(from, to types.ProcessID) bool {
		return from != 0 || to == 0 // drop 0's sends to others
	})
	r := NewRunner(Config{N: 4, Seed: 1, Fault: plane}, nodes)
	r.Run(0)
	m := r.Metrics()
	if m.MessagesDropped != 3 {
		t.Errorf("dropped = %d, want 3", m.MessagesDropped)
	}
	if m.MessagesSent != 9 { // 12 sends to another process minus the 3 dropped
		t.Errorf("sent = %d, want 9 (dropped messages must not count as sent, nor self-sends)", m.MessagesSent)
	}
	if m.MessagesDelivered != 13 { // the 9 sent and the 4 self-sends
		t.Errorf("delivered = %d, want 13", m.MessagesDelivered)
	}
	if want := 9 * MessageSize(ping{}); m.BytesSent != want {
		t.Errorf("bytes = %d, want %d", m.BytesSent, want)
	}
	if m.ByType["sim.ping"] != 9 {
		t.Errorf("ByType = %v, want 9 pings", m.ByType)
	}
}

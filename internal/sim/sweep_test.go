package sim

import (
	"fmt"
	"runtime"
	"strings"
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
	res := Sweep(seeds, 2, func(seed int64) int64 { return seed * 10 })
	for i, s := range seeds {
		if res.Seeds[i] != s {
			t.Errorf("Seeds[%d] = %d, want %d", i, res.Seeds[i], s)
		}
		if res.Values[i] != s*10 {
			t.Errorf("Values[%d] = %d, want %d", i, res.Values[i], s*10)
		}
	}
	if err := res.Err(); err != nil {
		t.Errorf("unexpected sweep error: %v", err)
	}
}

// TestSweepWorkerCountIndependence is the acceptance check of the sweep
// determinism contract: identical aggregated output for worker counts 1, 2
// and GOMAXPROCS, byte for byte.
func TestSweepWorkerCountIndependence(t *testing.T) {
	seeds := SeedRange(1, 32)
	render := func(workers int) string {
		res := Sweep(seeds, workers, sweepTrace)
		if err := res.Err(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return Reduce(res, "", func(acc string, seed int64, v string) string {
			return acc + fmt.Sprintf("== seed %d ==\n%s", seed, v)
		})
	}
	serial := render(1)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := render(workers); got != serial {
			t.Errorf("sweep output differs between 1 and %d workers:\n--- 1 worker ---\n%s\n--- %d workers ---\n%s",
				workers, serial, workers, got)
		}
	}
}

func TestSweepPanicCaptureReportsSeed(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	res := Sweep(seeds, 3, func(seed int64) int {
		if seed == 4 {
			panic("boom")
		}
		return int(seed)
	})
	err := res.Err()
	if err == nil {
		t.Fatal("panicking run not surfaced")
	}
	if !strings.Contains(err.Error(), "seed 4") || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error should name seed and panic value: %v", err)
	}
	panics := res.Panics()
	if len(panics) != 1 || panics[0].Seed != 4 || panics[0].Index != 3 {
		t.Fatalf("panics = %+v", panics)
	}
	if len(panics[0].Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if res.PanicAt(3) == nil || res.PanicAt(0) != nil {
		t.Error("PanicAt mislocates the panicked index")
	}
	// The healthy runs still completed, and Reduce skips the panicked one.
	sum := Reduce(res, 0, func(acc int, _ int64, v int) int { return acc + v })
	if sum != 1+2+3+5 {
		t.Errorf("Reduce over non-panicked runs = %d, want %d", sum, 1+2+3+5)
	}
}

func TestSweepReduceAppliesInSeedOrder(t *testing.T) {
	seeds := []int64{9, 1, 6, 2}
	res := Sweep(seeds, 4, func(seed int64) int64 { return seed })
	order := Reduce(res, []int64(nil), func(acc []int64, seed int64, v int64) []int64 {
		if seed != v {
			t.Errorf("value %d paired with seed %d", v, seed)
		}
		return append(acc, seed)
	})
	for i := range seeds {
		if order[i] != seeds[i] {
			t.Fatalf("reduce order %v, want %v", order, seeds)
		}
	}
}

func TestSweepEmptyAndOversizedPool(t *testing.T) {
	res := Sweep(nil, 8, func(seed int64) int { return 1 })
	if len(res.Values) != 0 || res.Err() != nil {
		t.Errorf("empty sweep: %+v", res)
	}
	// More workers than seeds must not deadlock or duplicate work.
	res = Sweep([]int64{1, 2}, 16, func(seed int64) int { return int(seed) })
	if res.Values[0] != 1 || res.Values[1] != 2 {
		t.Errorf("oversized pool values = %v", res.Values)
	}
}

func TestMergeMetrics(t *testing.T) {
	a := &Metrics{MessagesSent: 3, MessagesDelivered: 2, MessagesDropped: 1, BytesSent: 30,
		ByType: map[string]int{"sim.ping": 3}}
	b := &Metrics{MessagesSent: 5, MessagesDelivered: 5, BytesSent: 50,
		ByType: map[string]int{"sim.ping": 4, "sim.pong": 1}}
	m := MergeMetrics(a, nil, b)
	if m.MessagesSent != 8 || m.MessagesDelivered != 7 || m.MessagesDropped != 1 || m.BytesSent != 80 {
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
	if m.MessagesSent != 13 { // 16 broadcasts minus the 3 dropped
		t.Errorf("sent = %d, want 13 (dropped messages must not count as sent)", m.MessagesSent)
	}
	if m.MessagesSent != m.MessagesDelivered {
		t.Errorf("sent=%d delivered=%d; with drops excluded they must match", m.MessagesSent, m.MessagesDelivered)
	}
	if m.BytesSent != 13*8 {
		t.Errorf("bytes = %d, want %d", m.BytesSent, 13*8)
	}
	if m.ByType["sim.ping"] != 13 {
		t.Errorf("ByType = %v, want 13 pings", m.ByType)
	}
}

// TestSweepPanicAtIndexed exercises PanicAt on a panic-heavy sweep: every
// odd seed panics, and the position index must attribute each captured
// panic to exactly its own slot (Reduce consults PanicAt per seed, so
// this is also what keeps panic-heavy reductions linear).
func TestSweepPanicAtIndexed(t *testing.T) {
	seeds := SeedRange(0, 64)
	res := Sweep(seeds, 4, func(seed int64) int64 {
		if seed%2 == 1 {
			panic(seed)
		}
		return seed
	})
	for i, seed := range seeds {
		sp := res.PanicAt(i)
		if seed%2 == 1 {
			if sp == nil || sp.Seed != seed || sp.Index != i {
				t.Fatalf("PanicAt(%d) = %+v, want panic for seed %d", i, sp, seed)
			}
		} else if sp != nil {
			t.Fatalf("PanicAt(%d) = %+v for a healthy run", i, sp)
		}
	}
	if res.PanicAt(len(seeds)+5) != nil {
		t.Fatal("PanicAt out of range returned a panic")
	}
	sum := Reduce(res, int64(0), func(acc int64, _ int64, v int64) int64 { return acc + v })
	want := int64(0)
	for _, s := range seeds {
		if s%2 == 0 {
			want += s
		}
	}
	if sum != want {
		t.Fatalf("Reduce over even seeds = %d, want %d", sum, want)
	}
}

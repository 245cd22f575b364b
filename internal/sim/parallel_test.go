package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// gossipNode exercises the parallel delivery stage with real fan-out:
// every received hop with remaining TTL is rebroadcast, so timestamp
// batches contain many receivers with several events each.
type gossipNode struct {
	trace []gossipStep
}

type gossipStep struct {
	at   VirtualTime
	from types.ProcessID
	ttl  int
}

type hop struct {
	TTL    int
	Origin types.ProcessID
}

// A hop has a codec in the test band: a message sent to another process
// is priced by its encoding.
func init() {
	wire.Register(wire.TestTagFloor+101, hop{}, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			h := msg.(hop)
			return wire.AppendUvarint(wire.AppendUvarint(dst, uint64(h.TTL)), uint64(h.Origin)), nil
		},
		Decode: func(b []byte) (any, []byte, error) {
			ttl, rest, err := wire.ReadUvarint(b)
			if err != nil {
				return nil, b, err
			}
			origin, rest, err := wire.ReadUvarint(rest)
			return hop{TTL: int(ttl), Origin: types.ProcessID(origin)}, rest, err
		},
	})
}

func (g *gossipNode) Init(e Env) {
	e.Broadcast(hop{TTL: 2, Origin: e.Self()})
}

func (g *gossipNode) Receive(e Env, from types.ProcessID, msg Message) {
	h, ok := msg.(hop)
	if !ok {
		return
	}
	g.trace = append(g.trace, gossipStep{at: e.Now(), from: from, ttl: h.TTL})
	if h.TTL > 0 {
		e.Broadcast(hop{TTL: h.TTL - 1, Origin: h.Origin})
	}
}

// gossipRun executes one gossip cluster and returns (traces, metrics,
// end time).
func gossipRun(n int, workers int, seed int64) ([][]gossipStep, *Metrics, VirtualTime) {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &gossipNode{}
	}
	r := NewRunner(Config{
		N: n, Seed: seed, Latency: UniformLatency{Min: 1, Max: 6},
		DeliveryWorkers: workers,
	}, nodes)
	r.Run(0)
	traces := make([][]gossipStep, n)
	for i, nd := range nodes {
		traces[i] = nd.(*gossipNode).trace
	}
	return traces, r.Metrics(), r.Now()
}

// TestParallelDeliveryDeterministicAcrossWorkers pins the parallel-mode
// contract: the observable execution — per-node delivery traces, the full
// Metrics including ByType, the final virtual time — is byte-identical
// for 1, 2 and GOMAXPROCS delivery workers.
func TestParallelDeliveryDeterministicAcrossWorkers(t *testing.T) {
	const n, seed = 7, 42
	refTraces, refMetrics, refEnd := gossipRun(n, 1, seed)
	if refMetrics.MessagesDelivered == 0 {
		t.Fatal("gossip run delivered nothing")
	}
	counts := []int{2, 4, runtime.GOMAXPROCS(0)}
	for _, w := range counts {
		traces, metrics, end := gossipRun(n, w, seed)
		if end != refEnd {
			t.Fatalf("workers=%d: end time %d, want %d", w, end, refEnd)
		}
		if !reflect.DeepEqual(metrics, refMetrics) {
			t.Fatalf("workers=%d: metrics diverged:\n got %+v\nwant %+v", w, metrics, refMetrics)
		}
		if !reflect.DeepEqual(traces, refTraces) {
			t.Fatalf("workers=%d: delivery traces diverged from 1-worker run", w)
		}
	}
}

// randyNode draws from Env.Rand on every delivery — the case the serial
// fallback exists for.
type randyNode struct {
	draws []int64
	times []VirtualTime
}

func (r *randyNode) Init(e Env) {
	e.Broadcast(hop{TTL: 1})
}

func (r *randyNode) Receive(e Env, from types.ProcessID, msg Message) {
	h, ok := msg.(hop)
	if !ok {
		return
	}
	r.draws = append(r.draws, e.Rand().Int63())
	r.times = append(r.times, e.Now())
	if h.TTL > 0 {
		e.Broadcast(hop{TTL: h.TTL - 1})
	}
}

// TestParallelRandFallbackDeterministic pins the Env.Rand contract under
// parallel delivery: nodes that randomize inside Receive stay
// deterministic — identical draws and delivery times for every worker
// count — via the derived-stream-then-serial fallback.
func TestParallelRandFallbackDeterministic(t *testing.T) {
	run := func(workers int) ([][]int64, [][]VirtualTime) {
		const n = 5
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &randyNode{}
		}
		r := NewRunner(Config{
			N: n, Seed: 9, Latency: UniformLatency{Min: 1, Max: 4},
			DeliveryWorkers: workers,
		}, nodes)
		r.Run(0)
		draws := make([][]int64, n)
		times := make([][]VirtualTime, n)
		for i, nd := range nodes {
			draws[i] = nd.(*randyNode).draws
			times[i] = nd.(*randyNode).times
		}
		return draws, times
	}
	refDraws, refTimes := run(1)
	var total int
	for _, d := range refDraws {
		total += len(d)
	}
	if total == 0 {
		t.Fatal("randy cluster never drew randomness")
	}
	for _, w := range []int{2, 3, 8} {
		draws, times := run(w)
		if !reflect.DeepEqual(draws, refDraws) {
			t.Fatalf("workers=%d: Rand draws diverged from 1-worker run", w)
		}
		if !reflect.DeepEqual(times, refTimes) {
			t.Fatalf("workers=%d: delivery times diverged from 1-worker run", w)
		}
	}
}

// TestParallelMatchesSerialForSingleReceiverBatches: with one receiver
// per timestamp there is no commit reordering, so parallel mode must
// coincide with serial mode exactly.
func TestParallelMatchesSerialForSingleReceiverBatches(t *testing.T) {
	run := func(workers int) ([]VirtualTime, *Metrics) {
		nodes := []Node{&silentNode{}, &pingNode{}}
		r := NewRunner(Config{N: 2, Seed: 3, Latency: UniformLatency{Min: 1, Max: 9}, DeliveryWorkers: workers}, nodes)
		r.init()
		for i := 0; i < 50; i++ {
			r.send(0, 1, ping{payload: i})
		}
		r.Run(0)
		return nodes[1].(*pingNode).times, r.Metrics()
	}
	serialTimes, serialMetrics := run(0)
	parTimes, parMetrics := run(4)
	if !reflect.DeepEqual(parTimes, serialTimes) {
		t.Fatalf("single-receiver parallel delivery diverged from serial:\n got %v\nwant %v", parTimes, serialTimes)
	}
	if !reflect.DeepEqual(parMetrics, serialMetrics) {
		t.Fatalf("single-receiver parallel metrics diverged:\n got %+v\nwant %+v", parMetrics, serialMetrics)
	}
}

// panicNode panics upon its first delivery.
type panicNode struct{}

func (panicNode) Init(e Env) { e.Broadcast(hop{}) }
func (panicNode) Receive(Env, types.ProcessID, Message) {
	panic("panicNode: boom")
}

// TestParallelPanicSurfacesOnDrivingGoroutine: a handler panic inside a
// worker must re-raise on the goroutine driving Run — that is where
// Sweep's per-seed recover sits — with a deterministic value.
func TestParallelPanicSurfacesOnDrivingGoroutine(t *testing.T) {
	for _, w := range []int{1, 3} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("workers=%d: panic did not propagate", w)
				}
				if fmt.Sprint(v) != "panicNode: boom" {
					t.Fatalf("workers=%d: unexpected panic value %v", w, v)
				}
			}()
			nodes := []Node{panicNode{}, panicNode{}, panicNode{}}
			r := NewRunner(Config{N: 3, Seed: 1, DeliveryWorkers: w}, nodes)
			r.Run(0)
		}()
	}
}

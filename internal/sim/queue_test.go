package sim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/types"
)

// refHeap is a verbatim copy of the single 4-ary min-heap the simulator
// once scheduled with. It is retained here as the differential reference:
// the event queue's pop sequence must be byte-identical to it on every
// workload, because serial-mode delivery order is defined by this total
// order.
type refHeap struct {
	events []event
}

const refArity = 4

func (q *refHeap) Len() int { return len(q.events) }

func (q *refHeap) push(e event) {
	q.events = append(q.events, e)
	i := len(q.events) - 1
	for i > 0 {
		parent := (i - 1) / refArity
		if !eventLess(&e, &q.events[parent]) {
			break
		}
		q.events[i] = q.events[parent]
		i = parent
	}
	q.events[i] = e
}

func (q *refHeap) pop() event {
	ev := q.events[0]
	last := len(q.events) - 1
	moved := q.events[last]
	q.events[last] = event{}
	q.events = q.events[:last]
	if last == 0 {
		return ev
	}
	i, n := 0, last
	for {
		first := refArity*i + 1
		if first >= n {
			break
		}
		end := first + refArity
		if end > n {
			end = n
		}
		smallest := first
		for c := first + 1; c < end; c++ {
			if eventLess(&q.events[c], &q.events[smallest]) {
				smallest = c
			}
		}
		if !eventLess(&q.events[smallest], &moved) {
			break
		}
		q.events[i] = q.events[smallest]
		i = smallest
	}
	q.events[i] = moved
	return ev
}

// eventKey is the comparable identity of a popped event for the
// differential assertions.
type eventKey struct {
	at   VirtualTime
	seq  uint64
	to   types.ProcessID
	from types.ProcessID
}

func keyOf(e event) eventKey { return eventKey{at: e.at, seq: e.seq, to: e.to, from: e.from} }

// pair drives the event queue and the reference heap in lockstep the way a
// run drives its queue: pushes are stamped with the next seq and land at
// the time of the last pop plus a delay.
type pair struct {
	t   testing.TB
	q   eventQueue
	ref refHeap
	seq uint64
	now VirtualTime
}

// push enqueues one event d after the last popped instant into both.
func (p *pair) push(d VirtualTime, to, from types.ProcessID) {
	p.seq++
	e := event{at: p.now + d, seq: p.seq, to: to, from: from}
	p.q.push(e)
	p.ref.push(e)
}

// pop pops both, fails on divergence, and returns the popped event.
func (p *pair) pop(ctx string) event {
	p.t.Helper()
	want, got := p.ref.pop(), p.q.pop()
	if keyOf(want) != keyOf(got) {
		p.t.Fatalf("%s: pop diverged: event queue %+v, reference %+v", ctx, keyOf(got), keyOf(want))
	}
	p.now = got.at
	return got
}

// drain pops every remaining event from both and checks the queue is empty.
func (p *pair) drain(ctx string) {
	p.t.Helper()
	if p.q.Len() != p.ref.Len() {
		p.t.Fatalf("%s: event queue holds %d events, reference %d", ctx, p.q.Len(), p.ref.Len())
	}
	for p.ref.Len() > 0 {
		p.pop(ctx)
	}
	if p.q.Len() != 0 {
		p.t.Fatalf("%s: event queue not drained: %d left", ctx, p.q.Len())
	}
}

// randomWorkload interleaves pushes and pops with delays drawn by delay.
func randomWorkload(t *testing.T, seed int64, n int, delay func(*rand.Rand) VirtualTime) {
	rng := rand.New(rand.NewSource(seed))
	p := &pair{t: t}
	ops := 400 + rng.Intn(400)
	for op := 0; op < ops; op++ {
		if p.ref.Len() > 0 && rng.Intn(3) == 0 {
			p.pop("random")
			continue
		}
		p.push(delay(rng), types.ProcessID(rng.Intn(n)), types.ProcessID(rng.Intn(n)))
	}
	p.drain("random drain")
}

// TestLaneQueueDifferentialRandom drives randomized workloads — duplicate
// timestamps, interleaved pushes and pops, varying receiver counts —
// through the event queue and the retained 4-ary heap and asserts
// identical pop sequences. The first delay mix stays inside the ring and
// forces duplicate timestamps; the second adds delays past it (64..500, as
// fault-plane extras and large latencies produce), so far events keep
// moving into buckets that also take direct pushes.
func TestLaneQueueDifferentialRandom(t *testing.T) {
	near := func(rng *rand.Rand) VirtualTime { return VirtualTime(rng.Intn(4)) }
	mixed := func(rng *rand.Rand) VirtualTime {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return 64 + VirtualTime(rng.Intn(437))
		default:
			return 1 + VirtualTime(rng.Intn(20))
		}
	}
	for _, delay := range []func(*rand.Rand) VirtualTime{near, mixed} {
		for _, n := range []int{1, 2, 3, 5, 8, 30, 100} {
			for seed := int64(0); seed < 30; seed++ {
				randomWorkload(t, seed*1000+int64(n), n, delay)
			}
		}
	}
}

// TestLaneQueueSingleReceiverFlood floods one receiver with 5 000 events
// over 50 instants, so buckets chain many segments.
func TestLaneQueueSingleReceiverFlood(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(7))
	p := &pair{t: t}
	for i := 0; i < 5000; i++ {
		p.push(VirtualTime(rng.Intn(50)), 3, types.ProcessID(rng.Intn(n)))
	}
	p.drain("single-receiver flood")
}

// TestLaneQueueDuplicateTimestamps floods every receiver at a handful of
// timestamps: the seq tie-break alone must order the pops.
func TestLaneQueueDuplicateTimestamps(t *testing.T) {
	const n = 9
	p := &pair{t: t}
	for round := 0; round < 40; round++ {
		for to := 0; to < n; to++ {
			p.push(VirtualTime(round%3), types.ProcessID(to), 0)
		}
	}
	p.drain("duplicate timestamps")
}

// TestQueueZeroDelayAfterPop pushes at the instant just popped: the event
// joins the current instant behind its earlier events and ahead of every
// later instant.
func TestQueueZeroDelayAfterPop(t *testing.T) {
	p := &pair{t: t}
	p.push(2, 0, 0)
	p.push(2, 1, 0)
	p.push(3, 2, 0)
	p.pop("first")
	p.push(0, 3, 0)
	p.pop("second")
	p.pop("third") // empties the current instant's bucket
	p.push(0, 4, 0)
	p.drain("zero delay")
}

// TestQueueJumpsToFarEvent parks events far past an empty ring, as a
// hold-until partition does, then keeps the run going from there.
func TestQueueJumpsToFarEvent(t *testing.T) {
	p := &pair{t: t}
	p.push(1, 0, 0)
	p.pop("near")
	p.push(10_000, 1, 0)
	p.push(10_000, 2, 0)
	p.push(10_050, 3, 0)
	p.push(20_000, 4, 0)
	if e := p.pop("jump"); e.at != 10_001 {
		t.Fatalf("popped at %d, want 10001", e.at)
	}
	p.push(0, 5, 0)
	p.push(49, 6, 0)
	p.push(63, 7, 0)
	p.drain("after the jump")
}

// TestQueueFarEventsMeetDirectPushes files events for one instant through
// the far heap, advances the window over it, and pushes more events at
// that instant directly: the far ones, pushed first, must pop first.
func TestQueueFarEventsMeetDirectPushes(t *testing.T) {
	p := &pair{t: t}
	p.push(100, 0, 0)
	p.push(100, 1, 0)
	p.push(101, 2, 0)
	for step := 0; step < 45; step++ {
		// Each step also files one event just past the window (into the
		// far heap) and one on its last instant (a direct push): a step
		// later both fall on one instant, and the far one must pop first.
		p.push(1, 3, 0)
		p.push(ringLen, 7, 0)
		p.push(ringLen-1, 8, 0)
		p.pop("walk")
	}
	if p.now+ringLen <= 100 {
		t.Fatalf("walk stopped at %d, short of bringing instant 100 into the ring", p.now)
	}
	p.push(100-p.now, 4, 0)
	p.push(101-p.now, 5, 0)
	p.push(100-p.now, 6, 0)
	p.drain("far meets direct")
}

// TestQueuePushLaterDuringDrain pops one instant's events while pushing
// each again one instant later, onto an instant that already holds an
// event: the copies pop behind it.
func TestQueuePushLaterDuringDrain(t *testing.T) {
	p := &pair{t: t}
	for to := 0; to < 5; to++ {
		p.push(1, types.ProcessID(to), 0)
	}
	p.push(2, 9, 0)
	for i := 0; i < 5; i++ {
		e := p.pop("drain")
		p.push(1, e.to, e.from)
	}
	p.drain("pushed later")
}

// TestQueuePushBehindCurrentInstantPanics pins the guard: the ring would
// file an event earlier than the current instant one lap late.
func TestQueuePushBehindCurrentInstantPanics(t *testing.T) {
	var q eventQueue
	q.push(event{at: 10, seq: 1})
	q.pop()
	defer func() {
		v := recover()
		msg, _ := v.(string)
		if !strings.Contains(msg, "event at 9 pushed behind the current instant 10") {
			t.Fatalf("recovered %v, want the behind-the-instant panic", v)
		}
	}()
	q.push(event{at: 9, seq: 2})
}

// TestQueueRecyclesSegments pins the storage claim: once a run has reached
// its peak depth, pushing and popping allocates nothing, because every
// emptied segment is reused. The cycle keeps about 3 000 events pending
// across near and far instants, so buckets chain several segments and the
// far heap moves events into the ring on every lap.
func TestQueueRecyclesSegments(t *testing.T) {
	var q eventQueue
	var seq uint64
	delays := []VirtualTime{1, 2, 3, 5, 8, 13, 20, 0, 70, 300}
	i := 0
	cycle := func() {
		e := q.pop()
		seq++
		i++
		q.push(event{at: e.at + delays[i%len(delays)], seq: seq, to: e.to})
	}
	for seq < 3000 {
		seq++
		q.push(event{at: VirtualTime(seq % 20), seq: seq, to: types.ProcessID(seq % 30)})
	}
	for k := 0; k < 200_000; k++ {
		cycle()
	}
	if a := testing.AllocsPerRun(20, func() {
		for k := 0; k < 1024; k++ {
			cycle()
		}
	}); a != 0 {
		t.Fatalf("a warmed push/pop cycle allocates %v times per 1024 events, want 0", a)
	}
}

// FuzzEventQueue is the differential check over fuzzer-chosen operation
// sequences. Each byte is one operation: a pop, or a push whose delay is
// 0, 1..20 or 64..500. The seed corpus runs with go test; make fuzz
// explores further.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 0, 0})
	f.Add([]byte{7, 7, 11, 0, 6, 6, 0, 0, 3, 0, 5, 0})
	f.Add([]byte{255, 251, 0, 2, 2, 0, 1, 0, 0, 0})
	f.Add([]byte("\x03\x07\x0b\x0f\x13\x00\x00\x17\x1b\x00\x02\x06\x0a\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := &pair{t: t}
		for i, b := range ops {
			arg := VirtualTime(b >> 2)
			to := types.ProcessID(b>>2) % 5
			switch b & 3 {
			case 0:
				if p.ref.Len() > 0 {
					p.pop("fuzz")
				}
			case 1:
				p.push(0, to, types.ProcessID(i%3))
			case 2:
				p.push(1+arg%20, to, types.ProcessID(i%3))
			case 3:
				p.push(64+arg*7%437, to, types.ProcessID(i%3))
			}
		}
		p.drain("fuzz drain")
	})
}

package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// pingNode sends a ping to everyone on init and counts received pings.
type pingNode struct {
	got     int
	fromSet types.Set
	times   []VirtualTime
	froms   []types.ProcessID
}

type ping struct{ payload int }

// A ping sent to another process is priced by its encoding, as every
// message is, so it has a codec in the test band.
func init() {
	wire.Register(wire.TestTagFloor+100, ping{}, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			return wire.AppendUvarint(dst, uint64(msg.(ping).payload)), nil
		},
		Decode: func(b []byte) (any, []byte, error) {
			v, rest, err := wire.ReadUvarint(b)
			return ping{payload: int(v)}, rest, err
		},
	})
}

func (n *pingNode) Init(e Env) {
	n.fromSet = types.NewSet(e.N())
	e.Broadcast(ping{payload: int(e.Self())})
}

func (n *pingNode) Receive(e Env, from types.ProcessID, msg Message) {
	if _, ok := msg.(ping); !ok {
		return
	}
	n.got++
	n.fromSet.Add(from)
	n.times = append(n.times, e.Now())
	n.froms = append(n.froms, from)
}

func newPingCluster(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &pingNode{}
	}
	return nodes
}

func TestBroadcastDeliversToAllIncludingSelf(t *testing.T) {
	nodes := newPingCluster(5)
	r := NewRunner(Config{N: 5, Seed: 1}, nodes)
	r.Run(0)
	for i, n := range nodes {
		pn := n.(*pingNode)
		if pn.got != 5 {
			t.Errorf("node %d got %d pings, want 5", i, pn.got)
		}
		if pn.fromSet.Count() != 5 {
			t.Errorf("node %d heard from %v", i, pn.fromSet)
		}
	}
	// Every node hears its own ping, but only the 20 pings to another
	// node cross a link and count as sent.
	m := r.Metrics()
	if m.MessagesSent != 20 || m.MessagesDelivered != 25 {
		t.Errorf("metrics sent/delivered = %d/%d, want 20/25", m.MessagesSent, m.MessagesDelivered)
	}
	if want := 20 * MessageSize(ping{}); m.BytesSent != want {
		t.Errorf("BytesSent = %d, want %d", m.BytesSent, want)
	}
	if m.ByType["sim.ping"] != 20 {
		t.Errorf("ByType = %v", m.ByType)
	}
}

// multicastNode is a pingNode that sends its ping with Multicast.
type multicastNode struct {
	pingNode
	to []types.ProcessID
}

func (n *multicastNode) Init(e Env) {
	n.fromSet = types.NewSet(e.N())
	Multicast(e, n.to, ping{payload: int(e.Self())})
}

// TestMulticast: a nil recipient list is a Broadcast, with the same
// deliveries at the same times and the same metrics, and a list sends to
// its members only.
func TestMulticast(t *testing.T) {
	const n = 5
	run := func(to []types.ProcessID) ([]*multicastNode, *Metrics) {
		nodes := make([]Node, n)
		mc := make([]*multicastNode, n)
		for i := range nodes {
			mc[i] = &multicastNode{to: to}
			nodes[i] = mc[i]
		}
		r := NewRunner(Config{N: n, Seed: 3, Latency: UniformLatency{Min: 1, Max: 9}}, nodes)
		r.Run(0)
		return mc, r.Metrics()
	}
	bc := newPingCluster(n)
	r := NewRunner(Config{N: n, Seed: 3, Latency: UniformLatency{Min: 1, Max: 9}}, bc)
	r.Run(0)
	all, m := run(nil)
	for i, nd := range all {
		want := bc[i].(*pingNode)
		if fmt.Sprint(nd.times, nd.froms) != fmt.Sprint(want.times, want.froms) {
			t.Fatalf("node %d: nil multicast delivered at %v from %v, broadcast at %v from %v", i, nd.times, nd.froms, want.times, want.froms)
		}
	}
	if fmt.Sprint(*m) != fmt.Sprint(*r.Metrics()) {
		t.Fatalf("nil multicast metrics %+v, broadcast %+v", m, r.Metrics())
	}
	some, m := run([]types.ProcessID{1, 3})
	for i, nd := range some {
		if want := map[bool]int{false: 0, true: n}[i == 1 || i == 3]; nd.got != want {
			t.Fatalf("node %d got %d pings, want %d", i, nd.got, want)
		}
	}
	// Processes 1 and 3 send to themselves too, for free.
	if m.MessagesSent != 2*n-2 || m.MessagesDelivered != 2*n {
		t.Fatalf("multicast to 2 of %d sent %d messages and delivered %d, want %d and %d", n, m.MessagesSent, m.MessagesDelivered, 2*n-2, 2*n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []VirtualTime {
		nodes := newPingCluster(6)
		r := NewRunner(Config{N: 6, Seed: seed, Latency: UniformLatency{Min: 1, Max: 50}}, nodes)
		r.Run(0)
		var all []VirtualTime
		for _, n := range nodes {
			all = append(all, n.(*pingNode).times...)
		}
		return all
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		diff := false
		for i := range a {
			if a[i] != c[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical uniform-latency traces (suspicious)")
		}
	}
}

func TestDropFilter(t *testing.T) {
	nodes := newPingCluster(4)
	// Drop everything sent by process 0 to others (keep self-delivery).
	plane := keepPlane(func(from, to types.ProcessID) bool {
		return from != 0 || to == 0
	})
	r := NewRunner(Config{N: 4, Seed: 1, Fault: plane}, nodes)
	r.Run(0)
	for i := 1; i < 4; i++ {
		pn := nodes[i].(*pingNode)
		if pn.fromSet.Contains(0) {
			t.Errorf("node %d heard from 0 despite the dropping plane", i)
		}
		if pn.got != 3 {
			t.Errorf("node %d got %d, want 3", i, pn.got)
		}
	}
	if r.Metrics().MessagesDropped != 3 {
		t.Errorf("dropped = %d, want 3", r.Metrics().MessagesDropped)
	}
}

func TestFavoredLinksLatencyOrdersDeliveries(t *testing.T) {
	n := 6
	fav := make([]types.Set, n)
	for i := range fav {
		// Everyone favors processes 0..2.
		fav[i] = types.NewSetOf(n, 0, 1, 2)
	}
	nodes := newPingCluster(n)
	r := NewRunner(Config{
		N:       n,
		Seed:    1,
		Latency: FavoredLinksLatency{Favored: fav, Fast: 1, Slow: 1000},
	}, nodes)
	r.Run(0)
	favored := types.NewSetOf(n, 0, 1, 2)
	for i, nd := range nodes {
		pn := nd.(*pingNode)
		for k, at := range pn.times {
			fromFavored := favored.Contains(pn.froms[k])
			if at <= 10 && !fromFavored {
				t.Errorf("node %d: early delivery from unfavored %v at %d", i, pn.froms[k], at)
			}
			if at > 10 && fromFavored {
				t.Errorf("node %d: late delivery from favored %v at %d", i, pn.froms[k], at)
			}
		}
	}
}

func TestRunUntilAndLimits(t *testing.T) {
	nodes := newPingCluster(3)
	r := NewRunner(Config{N: 3, Seed: 9}, nodes)
	got := r.RunUntil(func() bool { return nodes[0].(*pingNode).got >= 2 }, 0)
	if !got {
		t.Fatal("RunUntil never satisfied")
	}
	// Limit respected.
	nodes2 := newPingCluster(3)
	r2 := NewRunner(Config{N: 3, Seed: 9}, nodes2)
	if p := r2.Run(4); p != 4 {
		t.Fatalf("Run(4) processed %d", p)
	}
	if r2.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", r2.Pending())
	}
}

func TestCrashNode(t *testing.T) {
	n := 4
	nodes := make([]Node, n)
	for i := 0; i < n-1; i++ {
		nodes[i] = &pingNode{}
	}
	crashed := &CrashNode{Inner: &pingNode{}, CrashAt: 0}
	nodes[n-1] = crashed
	r := NewRunner(Config{N: n, Seed: 1}, nodes)
	r.Run(0)
	if !crashed.Crashed() {
		t.Error("CrashAt=0 node should be crashed")
	}
	for i := 0; i < n-1; i++ {
		pn := nodes[i].(*pingNode)
		if pn.fromSet.Contains(types.ProcessID(n - 1)) {
			t.Errorf("node %d heard from crashed node", i)
		}
		if pn.got != n-1 {
			t.Errorf("node %d got %d, want %d", i, pn.got, n-1)
		}
	}
}

// TestCrashNodeBoundaryAtCrashAt pins the fail-stop boundary semantics: a
// message arriving strictly before CrashAt is processed; a message
// arriving exactly AT CrashAt is not (Receive checks Now() >= CrashAt).
// The satellite suites (and any experiment scheduling crashes against
// known latencies) rely on this half-open [start, CrashAt) live window.
func TestCrashNodeBoundaryAtCrashAt(t *testing.T) {
	inner := &arrivalProbe{}
	crash := &CrashNode{Inner: inner, CrashAt: 5}
	nodes := []Node{&silentNode{}, crash}
	// Process 0 sends two pings to the crash node: one arriving at time 4
	// (processed) and one arriving exactly at time 5 (dropped).
	lat := LatencyFunc(func(_, _ types.ProcessID, msg Message, _ VirtualTime, _ *rand.Rand) VirtualTime {
		return VirtualTime(msg.(ping).payload)
	})
	r := NewRunner(Config{N: 2, Seed: 1, Latency: lat}, nodes)
	r.init()
	r.send(0, 1, ping{payload: 4})
	r.send(0, 1, ping{payload: 5})
	r.Run(0)
	if len(inner.times) != 1 || inner.times[0] != 4 {
		t.Fatalf("processed arrival times = %v, want exactly [4] (the at-CrashAt arrival must be dropped)", inner.times)
	}
	if !crash.Crashed() {
		t.Fatal("node should have fail-stopped at the CrashAt arrival")
	}
}

// arrivalProbe records arrival times and sends nothing, so the only
// traffic in its cluster is what the test injects.
type arrivalProbe struct {
	times []VirtualTime
}

func (*arrivalProbe) Init(Env) {}
func (p *arrivalProbe) Receive(e Env, _ types.ProcessID, _ Message) {
	p.times = append(p.times, e.Now())
}

func TestMuteNode(t *testing.T) {
	nodes := []Node{&pingNode{}, MuteNode{}, &pingNode{}}
	r := NewRunner(Config{N: 3, Seed: 1}, nodes)
	r.Run(0)
	if nodes[0].(*pingNode).fromSet.Contains(1) {
		t.Error("heard from mute node")
	}
}

func TestTimeAdvancesMonotonically(t *testing.T) {
	nodes := newPingCluster(5)
	r := NewRunner(Config{N: 5, Seed: 3, Latency: UniformLatency{Min: 0, Max: 20}}, nodes)
	last := VirtualTime(-1)
	for r.Step() {
		if r.Now() < last {
			t.Fatalf("time went backwards: %d after %d", r.Now(), last)
		}
		last = r.Now()
	}
}

func TestUniformLatencyInvertedRangeNormalizes(t *testing.T) {
	// A transposed literal must behave exactly like the intended range —
	// same seeded draws, same bounds — not collapse to Min.
	straight := UniformLatency{Min: 1, Max: 20}
	inverted := UniformLatency{Min: 20, Max: 1}
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	sawAboveMin := false
	for i := 0; i < 200; i++ {
		a := straight.Delay(0, 1, nil, 0, rngA)
		b := inverted.Delay(0, 1, nil, 0, rngB)
		if a != b {
			t.Fatalf("draw %d: inverted range delay %d != normalized %d", i, b, a)
		}
		if b < 1 || b > 20 {
			t.Fatalf("draw %d: delay %d outside [1,20]", i, b)
		}
		if b > 1 {
			sawAboveMin = true
		}
	}
	if !sawAboveMin {
		t.Fatal("inverted range still collapses every delay to the lower bound")
	}
	// Degenerate point range stays constant.
	if d := (UniformLatency{Min: 5, Max: 5}).Delay(0, 1, nil, 0, rand.New(rand.NewSource(1))); d != 5 {
		t.Fatalf("point range delay = %d, want 5", d)
	}
}

func TestFavoredLinksLatencyOutOfRangeFallsBack(t *testing.T) {
	fav := []types.Set{types.NewSetOf(3, 1)}
	m := FavoredLinksLatency{Favored: fav, Fast: 1, Slow: 50}
	if d := m.Delay(1, 0, nil, 0, nil); d != 1 {
		t.Fatalf("favored link delay = %d, want Fast", d)
	}
	// Receiver beyond the configured slice: Slow, not a panic.
	if d := m.Delay(1, 2, nil, 0, nil); d != 50 {
		t.Fatalf("out-of-range receiver delay = %d, want Slow", d)
	}
	// Entirely unconfigured model.
	none := FavoredLinksLatency{Fast: 1, Slow: 50}
	if d := none.Delay(0, 1, nil, 0, nil); d != 50 {
		t.Fatalf("nil Favored delay = %d, want Slow", d)
	}
	// A cluster larger than the Favored slice now runs to quiescence.
	nodes := newPingCluster(4)
	r := NewRunner(Config{N: 4, Seed: 1, Latency: FavoredLinksLatency{Favored: fav[:1], Fast: 1, Slow: 9}}, nodes)
	r.Run(0)
	if got := nodes[3].(*pingNode).got; got != 4 {
		t.Fatalf("node beyond Favored got %d pings, want 4", got)
	}
}

// TestStepDeliveryDoesNotAllocate pins the pooled-Env invariant: once the
// run is warmed up, delivering an event must not allocate — the env
// boxing this replaces used to be the dominant allocator of message-heavy
// runs.
func TestStepDeliveryDoesNotAllocate(t *testing.T) {
	nodes := make([]Node, 2)
	for i := range nodes {
		nodes[i] = &silentNode{}
	}
	r := NewRunner(Config{N: 2, Seed: 1}, nodes)
	r.init()
	const events = 400
	for i := 0; i < events; i++ {
		r.send(0, 1, ping{payload: i})
	}
	allocs := testing.AllocsPerRun(events/4, func() {
		if !r.Step() {
			t.Fatal("queue drained early")
		}
	})
	if allocs != 0 {
		t.Fatalf("Step allocates %.1f objects per delivery, want 0", allocs)
	}
}

// silentNode consumes messages without reacting.
type silentNode struct{}

func (silentNode) Init(Env)                              {}
func (silentNode) Receive(Env, types.ProcessID, Message) {}

package sim

import (
	"fmt"
	"math/rand"
	"reflect"
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
	wire.Register(1100, ping{}, wire.Codec{
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
	Multicast(e, Cast{Msg: ping{payload: int(e.Self())}})
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

// pingRef is a ping by reference: its receiver already knows the payload.
type pingRef struct{}

func init() {
	wire.Register(1102, pingRef{}, wire.Codec{
		Append: func(dst []byte, _ any) ([]byte, error) { return dst, nil },
		Decode: func(b []byte) (any, []byte, error) { return pingRef{}, b, nil },
	})
}

// castNode makes one multicast act from Init, built by cast for its own
// ID, and records every delivery it gets. With perSend its Env hides the
// runner's Multicaster, so Multicast makes one Send per destination.
type castNode struct {
	cast    func(self types.ProcessID, n int) Cast
	perSend bool
	trace   *[]string
}

// sendsOnly is an Env that is not a Multicaster.
type sendsOnly struct{ Env }

func (c *castNode) env(e Env) Env {
	if c.perSend {
		return sendsOnly{e}
	}
	return e
}

func (c *castNode) Init(e Env) {
	Multicast(c.env(e), c.cast(e.Self(), e.N()))
}

func (c *castNode) Receive(e Env, from types.ProcessID, msg Message) {
	*c.trace = append(*c.trace, fmt.Sprintf("t=%d %d->%d %T%v", e.Now(), from, e.Self(), msg, msg))
}

// chaosPlane drops, duplicates and delays sends by draws from the run's
// RNG, so a path that consults it in another order or another number of
// times moves every later verdict.
type chaosPlane struct{}

func (chaosPlane) OnSend(_, _ types.ProcessID, _ Message, _ VirtualTime, rng *rand.Rand) SendVerdict {
	switch rng.Intn(4) {
	case 0:
		return SendVerdict{Drop: true}
	case 1:
		return SendVerdict{Duplicates: 1 + rng.Intn(2), Extra: VirtualTime(rng.Intn(5))}
	}
	return SendVerdict{}
}

// TestMulticast is the differential test of the one fan-out path: the
// runner, which takes a multicast act whole and prices each form once,
// must deliver the same messages at the same times and count the same
// metrics as one Send per destination through an Env that hides it, also
// under a fault plane that drops some links or one that drops, duplicates
// and delays at random. Each row also pins what its act counts.
func TestMulticast(t *testing.T) {
	const n = 5
	refTo := types.NewSetOf(n, 0, 2)
	skip0, skip2 := types.ProcessID(0), types.ProcessID(2)
	for _, tc := range []struct {
		name  string
		cast  func(self types.ProcessID, n int) Cast
		fault FaultPlane
		// sent, refs, encErrs and dropped are the whole run's
		// MessagesSent, pingRefs sent, EncodeErrors and MessagesDropped;
		// -1 skips the check, and a dropped of -1 requires drops and
		// duplicates instead.
		sent, refs, encErrs, dropped int
	}{
		{"nil To", func(self types.ProcessID, _ int) Cast {
			return Cast{Msg: ping{payload: int(self)}}
		}, nil, n * (n - 1), 0, 0, 0},
		{"audience with sender", func(self types.ProcessID, _ int) Cast {
			return Cast{To: []types.ProcessID{1, 3, 4}, Msg: ping{payload: int(self)}}
		}, nil, 3*n - 3, 0, 0, 0},
		{"Ref to some", func(self types.ProcessID, _ int) Cast {
			return Cast{Msg: ping{payload: 300 + int(self)}, Ref: pingRef{}, RefTo: refTo}
		}, nil, n * (n - 1), 2 * (n - 1), 0, 0},
		{"Ref to some of an audience", func(self types.ProcessID, _ int) Cast {
			return Cast{To: []types.ProcessID{0, 1, 2}, Msg: ping{payload: 300}, Ref: pingRef{}, RefTo: refTo}
		}, nil, 3*n - 3, 2*n - 2, 0, 0},
		{"nil To but one", func(self types.ProcessID, _ int) Cast {
			return Cast{Msg: ping{payload: int(self)}, Except: &skip2}
		}, nil, (n - 1) * (n - 1), 0, 0, 0},
		{"Ref to some of an audience but one", func(self types.ProcessID, _ int) Cast {
			return Cast{To: []types.ProcessID{0, 1, 2}, Msg: ping{payload: 300}, Ref: pingRef{}, RefTo: refTo, Except: &skip0}
		}, nil, 2*n - 2, n - 1, 0, 0},
		{"unencodable Msg", func(types.ProcessID, int) Cast {
			return Cast{Msg: neither{}, Ref: pingRef{}, RefTo: refTo}
		}, nil, 2 * (n - 1), 2 * (n - 1), 3*n - 3, 0},
		{"unencodable Ref", func(self types.ProcessID, _ int) Cast {
			return Cast{Msg: ping{payload: int(self)}, Ref: neither{}, RefTo: refTo}
		}, nil, 3*n - 3, 0, 2 * (n - 1), 0},
		{"drops and duplicates", func(self types.ProcessID, _ int) Cast {
			return Cast{To: []types.ProcessID{0, 2, 3, 4}, Msg: ping{payload: int(self)}, Ref: pingRef{}, RefTo: refTo}
		}, chaosPlane{}, -1, -1, 0, -1},
		{"nil To and links 0 to odd dropped", func(self types.ProcessID, _ int) Cast {
			return Cast{Msg: ping{payload: int(self)}}
		}, keepPlane(func(from, to types.ProcessID) bool {
			return !(from == 0 && to%2 == 1)
		}), n*(n-1) - 2, 0, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(perSend bool) ([]string, *Metrics) {
				var trace []string
				nodes := make([]Node, n)
				for i := range nodes {
					nodes[i] = &castNode{cast: tc.cast, perSend: perSend, trace: &trace}
				}
				r := NewRunner(Config{N: n, Seed: 3, Latency: UniformLatency{Min: 1, Max: 9}, Fault: tc.fault}, nodes)
				r.Run(0)
				return trace, r.Metrics()
			}
			trace, m := run(false)
			sendsTrace, sendsM := run(true)
			if !reflect.DeepEqual(trace, sendsTrace) {
				t.Errorf("the runner delivered\n%v\none Send per destination\n%v", trace, sendsTrace)
			}
			if !reflect.DeepEqual(m, sendsM) {
				t.Errorf("the runner counted %+v, one Send per destination %+v", m, sendsM)
			}
			if tc.sent >= 0 && (m.MessagesSent != tc.sent || m.ByType["sim.pingRef"] != tc.refs) || m.EncodeErrors != tc.encErrs {
				t.Errorf("sent %d, %d by reference, %d encode errors; want %d, %d, %d",
					m.MessagesSent, m.ByType["sim.pingRef"], m.EncodeErrors, tc.sent, tc.refs, tc.encErrs)
			}
			if tc.dropped >= 0 && m.MessagesDropped != tc.dropped {
				t.Errorf("%d dropped, want %d", m.MessagesDropped, tc.dropped)
			}
			if tc.dropped < 0 && (m.MessagesDropped == 0 || m.Duplicated == 0) {
				t.Errorf("%d dropped, %d duplicated: the plane must do both", m.MessagesDropped, m.Duplicated)
			}
		})
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

package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/types"
)

// Regression tests pinning the FaultPlane semantics documented on the type
// (self-delivery is consulted too; TestMulticast checks that a multicast is
// consulted per destination exactly like its sends) and the verdicts the
// scenario package builds on.

// keepPlane is a FaultPlane that drops every message on a link keep
// rejects and passes the rest through untouched.
type keepPlane func(from, to types.ProcessID) bool

func (k keepPlane) OnSend(from, to types.ProcessID, _ Message, _ VirtualTime, _ *rand.Rand) SendVerdict {
	return SendVerdict{Drop: !k(from, to)}
}

func (keepPlane) OnDeliver(types.ProcessID, types.ProcessID, Message, VirtualTime, *rand.Rand) DeliverVerdict {
	return DeliverVerdict{}
}

// TestDropFilterSelfDelivery pins that the plane is consulted for
// from == to: a plane dropping only self-delivery starves every node of
// exactly its own ping.
func TestDropFilterSelfDelivery(t *testing.T) {
	n := 4
	nodes := newPingCluster(n)
	plane := keepPlane(func(from, to types.ProcessID) bool { return from != to })
	r := NewRunner(Config{N: n, Seed: 1, Fault: plane}, nodes)
	r.Run(0)
	for i, nd := range nodes {
		pn := nd.(*pingNode)
		if pn.got != n-1 {
			t.Errorf("node %d got %d pings, want %d (own loopback dropped)", i, pn.got, n-1)
		}
		if pn.fromSet.Contains(types.ProcessID(i)) {
			t.Errorf("node %d heard from itself despite the self-delivery drop", i)
		}
	}
	if d := r.Metrics().MessagesDropped; d != n {
		t.Errorf("dropped = %d, want %d (one self-delivery per broadcast)", d, n)
	}
}

// fixedPlane issues the same send verdict for every message.
type fixedPlane SendVerdict

type link struct{ from, to types.ProcessID }

func (p fixedPlane) OnSend(types.ProcessID, types.ProcessID, Message, VirtualTime, *rand.Rand) SendVerdict {
	return SendVerdict(p)
}

func (fixedPlane) OnDeliver(types.ProcessID, types.ProcessID, Message, VirtualTime, *rand.Rand) DeliverVerdict {
	return DeliverVerdict{}
}

// TestFaultPlaneDropCountsAsDropped pins that a plane drop is accounted
// as MessagesDropped only.
func TestFaultPlaneDropCountsAsDropped(t *testing.T) {
	n := 3
	nodes := newPingCluster(n)
	plane := fixedPlane{Drop: true}
	r := NewRunner(Config{N: n, Seed: 1, Fault: plane}, nodes)
	r.Run(0)
	m := r.Metrics()
	if m.MessagesSent != 0 || m.BytesSent != 0 || m.ByType["sim.ping"] != 0 {
		t.Fatalf("plane-dropped messages leaked into sent metrics: %+v", m)
	}
	if m.MessagesDropped != n*n {
		t.Fatalf("dropped = %d, want %d", m.MessagesDropped, n*n)
	}
	for i, nd := range nodes {
		if got := nd.(*pingNode).got; got != 0 {
			t.Fatalf("node %d received %d messages through a dropping plane", i, got)
		}
	}
}

// TestFaultPlaneDuplicatesAndExtra pins the remaining send verdicts: each
// duplicate counts as a sent message with its own delivery, and Extra
// shifts every arrival.
func TestFaultPlaneDuplicatesAndExtra(t *testing.T) {
	n := 2
	nodes := newPingCluster(n)
	plane := fixedPlane{Duplicates: 2, Extra: 10}
	r := NewRunner(Config{N: n, Seed: 1, Latency: ConstantLatency(1), Fault: plane}, nodes)
	r.Run(0)
	m := r.Metrics()
	wantSent := n * (n - 1) * 3 // every ping tripled; the self-sends are free
	if m.MessagesSent != wantSent || m.MessagesDelivered != n*n*3 {
		t.Fatalf("sent/delivered = %d/%d, want %d/%d", m.MessagesSent, m.MessagesDelivered, wantSent, n*n*3)
	}
	if m.ByType["sim.ping"] != wantSent {
		t.Fatalf("ByType = %v, want %d pings", m.ByType, wantSent)
	}
	for i, nd := range nodes {
		pn := nd.(*pingNode)
		if pn.got != n*3 {
			t.Fatalf("node %d got %d pings, want %d", i, pn.got, n*3)
		}
		for _, at := range pn.times {
			if at != 11 {
				t.Fatalf("node %d delivery at %d, want 11 (latency 1 + extra 10)", i, at)
			}
		}
	}
}

// onceRedeliverPlane redelivers the first delivery of every (from, to)
// link exactly once, After time units later.
type onceRedeliverPlane struct {
	seen  map[link]bool
	after VirtualTime
}

func (p *onceRedeliverPlane) OnSend(types.ProcessID, types.ProcessID, Message, VirtualTime, *rand.Rand) SendVerdict {
	return SendVerdict{}
}

func (p *onceRedeliverPlane) OnDeliver(from, to types.ProcessID, _ Message, _ VirtualTime, _ *rand.Rand) DeliverVerdict {
	l := link{from, to}
	if p.seen[l] {
		return DeliverVerdict{}
	}
	if p.seen == nil {
		p.seen = map[link]bool{}
	}
	p.seen[l] = true
	return DeliverVerdict{Redeliver: true, After: p.after}
}

// TestFaultPlaneRedeliver pins the delivery-point duplication semantics:
// a redelivered copy is a second delivery of the same message —
// MessagesDelivered grows, MessagesSent does not.
func TestFaultPlaneRedeliver(t *testing.T) {
	n := 3
	nodes := newPingCluster(n)
	r := NewRunner(Config{N: n, Seed: 1, Latency: ConstantLatency(1), Fault: &onceRedeliverPlane{after: 5}}, nodes)
	r.Run(0)
	m := r.Metrics()
	if m.MessagesSent != n*(n-1) {
		t.Fatalf("sent = %d, want %d (redelivery must not count as sent, nor a self-send)", m.MessagesSent, n*(n-1))
	}
	if m.MessagesDelivered != 2*n*n {
		t.Fatalf("delivered = %d, want %d (every link redelivered once)", m.MessagesDelivered, 2*n*n)
	}
	for i, nd := range nodes {
		pn := nd.(*pingNode)
		if pn.got != 2*n {
			t.Fatalf("node %d got %d pings, want %d", i, pn.got, 2*n)
		}
	}
}

// msgProbe records every delivered (time, message) pair and sends nothing.
type msgProbe struct {
	times []VirtualTime
	msgs  []Message
}

func (*msgProbe) Init(Env) {}
func (p *msgProbe) Receive(e Env, _ types.ProcessID, msg Message) {
	p.times = append(p.times, e.Now())
	p.msgs = append(p.msgs, msg)
}

// churnLatency routes pings by their payload (the test's arrival-time
// dial) and everything else — the churn wake-up ticks — at a constant 3.
var churnLatency = LatencyFunc(func(_, _ types.ProcessID, msg Message, _ VirtualTime, _ *rand.Rand) VirtualTime {
	if p, ok := msg.(ping); ok {
		return VirtualTime(p.payload)
	}
	return 3
})

// TestChurnNodeSelfRecovery is the deadlock regression: a cluster that
// quiesces while the churned process is down must still recover it — the
// node's self-addressed tick loop keeps its lane alive until RecoverAt,
// when the buffered outage deliveries replay. Without the ticks this run
// ends at virtual time 10 and the buffered ping is lost inside the
// wrapper.
func TestChurnNodeSelfRecovery(t *testing.T) {
	probe := &msgProbe{}
	churn := &ChurnNode{Inner: probe, CrashAt: 5, RecoverAt: 200, Buffer: true}
	nodes := []Node{&silentNode{}, churn}
	r := NewRunner(Config{N: 2, Seed: 1, Latency: churnLatency}, nodes)
	r.init()
	r.send(0, 1, ping{payload: 10}) // arrives at t=10, inside [5, 200)
	r.Run(0)
	if !churn.Recovered() {
		t.Fatal("churn node never recovered (self wake-up loop broken)")
	}
	if len(probe.times) != 1 || probe.times[0] < 200 {
		t.Fatalf("replayed arrivals = %v, want exactly one at/after RecoverAt=200", probe.times)
	}
	if _, ok := probe.msgs[0].(ping); !ok {
		t.Fatalf("inner node saw %T, want the buffered ping (ticks must never leak inside)", probe.msgs[0])
	}
}

// TestChurnNodeBufferedReplayOrder pins that outage deliveries replay in
// arrival order, before the first post-recovery delivery.
func TestChurnNodeBufferedReplayOrder(t *testing.T) {
	probe := &msgProbe{}
	churn := &ChurnNode{Inner: probe, CrashAt: 5, RecoverAt: 200, Buffer: true}
	nodes := []Node{&silentNode{}, churn}
	r := NewRunner(Config{N: 2, Seed: 1, Latency: churnLatency}, nodes)
	r.init()
	r.send(0, 1, ping{payload: 30})  // buffered second
	r.send(0, 1, ping{payload: 10})  // buffered first
	r.send(0, 1, ping{payload: 250}) // delivered after recovery
	r.Run(0)
	var seq []int
	for _, m := range probe.msgs {
		seq = append(seq, m.(ping).payload)
	}
	if !reflect.DeepEqual(seq, []int{10, 30, 250}) {
		t.Fatalf("inner delivery order = %v, want [10 30 250] (buffer replay in arrival order)", seq)
	}
}

// TestChurnNodeUnbufferedLosesOutage pins the Buffer == false semantics:
// outage deliveries are gone, post-recovery traffic flows again.
func TestChurnNodeUnbufferedLosesOutage(t *testing.T) {
	probe := &msgProbe{}
	churn := &ChurnNode{Inner: probe, CrashAt: 5, RecoverAt: 200, Buffer: false}
	nodes := []Node{&silentNode{}, churn}
	r := NewRunner(Config{N: 2, Seed: 1, Latency: churnLatency}, nodes)
	r.init()
	r.send(0, 1, ping{payload: 4})   // before the window: processed
	r.send(0, 1, ping{payload: 5})   // exactly at CrashAt: lost
	r.send(0, 1, ping{payload: 10})  // inside: lost
	r.send(0, 1, ping{payload: 200}) // exactly at RecoverAt: processed
	r.send(0, 1, ping{payload: 250}) // after: processed
	r.Run(0)
	var seq []int
	for _, m := range probe.msgs {
		seq = append(seq, m.(ping).payload)
	}
	if !reflect.DeepEqual(seq, []int{4, 200, 250}) {
		t.Fatalf("inner delivery order = %v, want [4 200 250] (outage [5, 200) lost)", seq)
	}
	if !churn.Recovered() {
		t.Fatal("unbuffered churn node must still recover at RecoverAt")
	}
}

// TestChurnNodeRejectsEmptyWindow pins Init's guard: a down window that
// never closes (RecoverAt <= CrashAt) is a crash, not churn, and Init
// panics on it as it does on CrashAt <= 0. Without the guard, Receive's
// recovery check fires before its crash check, so such a node would
// handle every arrival as if it had never gone down.
func TestChurnNodeRejectsEmptyWindow(t *testing.T) {
	for _, tc := range []struct {
		crashAt, recoverAt VirtualTime
		want               string
	}{
		{0, 10, "CrashAt must be > 0"},
		{5, 0, "RecoverAt 0 must be after CrashAt 5"},
		{5, 5, "RecoverAt 5 must be after CrashAt 5"},
	} {
		churn := &ChurnNode{Inner: &msgProbe{}, CrashAt: tc.crashAt, RecoverAt: tc.recoverAt}
		r := NewRunner(Config{N: 1, Seed: 1}, []Node{churn})
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("CrashAt %d, RecoverAt %d: Init panicked with %q, want %q",
						tc.crashAt, tc.recoverAt, msg, tc.want)
				}
			}()
			r.Run(0)
		}()
	}
}

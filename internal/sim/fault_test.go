package sim

import (
	"math/rand"
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

func (p fixedPlane) OnSend(types.ProcessID, types.ProcessID, Message, VirtualTime, *rand.Rand) SendVerdict {
	return SendVerdict(p)
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
// duplicate counts as a sent message with its own delivery and in
// Duplicated, and Extra shifts every arrival.
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
	if want := n * n * 2; m.Duplicated != want { // two copies per send, self-sends included
		t.Fatalf("duplicated = %d, want %d", m.Duplicated, want)
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

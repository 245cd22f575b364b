package scenario

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/types"
)

// tag is the test message: Seq distinguishes successive broadcasts.
type tag struct {
	Seq int
}

// tagRef is tag by reference.
type tagRef struct {
	Seq int
}

func (r tagRef) String() string { return fmt.Sprintf("ref{%d}", r.Seq) }

// chatty multicasts Rounds tagged messages to To (nil: a broadcast to
// everyone): one from Init, then one more per self-delivery (self-sends
// travel through the network, so the chain is Rounds multicasts long, and
// To must hold the sender). The first goes by reference to RefFirst, a set
// chatty lends to that act and empties afterwards. Every act leaves out
// Except, when it is not nil.
type chatty struct {
	Rounds   int
	To       []types.ProcessID
	RefFirst types.Set
	Except   *types.ProcessID
	sent     int
}

func (c *chatty) Init(e sim.Env) {
	c.sent = 1
	sim.Multicast(e, sim.Cast{To: c.To, Msg: tag{Seq: 1}, Ref: tagRef{Seq: 1}, RefTo: c.RefFirst, Except: c.Except})
	c.RefFirst.Clear()
}

func (c *chatty) Receive(e sim.Env, from types.ProcessID, msg sim.Message) {
	if from != e.Self() {
		return
	}
	if c.sent < c.Rounds {
		c.sent++
		sim.Multicast(e, sim.Cast{To: c.To, Msg: tag{Seq: c.sent}, Ref: tagRef{Seq: c.sent}, RefTo: c.RefFirst, Except: c.Except})
	}
}

// recorder records every delivery.
type recorder struct {
	got []string
}

func (r *recorder) Init(sim.Env) {}

func (r *recorder) Receive(_ sim.Env, from types.ProcessID, msg sim.Message) {
	r.got = append(r.got, fmt.Sprintf("%d:%v", int(from), msg))
}

func TestWindowActive(t *testing.T) {
	w := Window{From: 10, Until: 20}
	for _, tc := range []struct {
		at   sim.VirtualTime
		want bool
	}{{9, false}, {10, true}, {19, true}, {20, false}} {
		if got := w.Active(tc.at); got != tc.want {
			t.Errorf("Active(%d) = %v, want %v", tc.at, got, tc.want)
		}
	}
	always := Window{}
	if !always.Active(0) || !always.Active(1<<40) {
		t.Error("zero window must be always active")
	}
	open := Window{From: 5}
	if open.Active(4) || !open.Active(1<<40) {
		t.Error("Until <= 0 must mean forever")
	}
}

func TestLinksSelectors(t *testing.T) {
	n := 4
	a := types.NewSetOf(n, 0, 1)
	b := types.NewSetOf(n, 2, 3)
	between := Between(a, b)
	for _, tc := range []struct {
		from, to types.ProcessID
		want     bool
	}{
		{0, 2, true}, {2, 0, true}, {0, 1, false}, {2, 3, false},
		{0, 0, false}, {2, 2, false}, // self-delivery is intra-side
	} {
		if got := between(tc.from, tc.to); got != tc.want {
			t.Errorf("Between(%v,%v) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	if !FromSet(a)(0, 3) || FromSet(a)(3, 0) {
		t.Error("FromSet must match on sender only")
	}
}

func TestPlaneOnSendComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := Scenario{Rules: []Rule{
		{Window: Window{From: 100, Until: 200}, HoldUntil: 200},
		{Duplicate: 1},
		{Delay: Jitter{Min: 3, Max: 3}},
	}}
	pl := s.FaultPlane()

	// Outside the first rule's window only the unconditional rules apply.
	v := pl.OnSend(0, 1, tag{}, 50, rng)
	if v.Drop || v.Duplicates != 1 || v.Extra != 3 {
		t.Fatalf("t=50: got %+v, want dup=1 extra=3", v)
	}
	// Inside the window the hold dominates the jitter: extra >= heal - now.
	v = pl.OnSend(0, 1, tag{}, 150, rng)
	if v.Extra != 50 || v.Duplicates != 1 {
		t.Fatalf("t=150: got %+v, want extra=50 (hold 200-150)", v)
	}
	// At t=199 the hold (1) is below the jitter (3): jitter wins.
	v = pl.OnSend(0, 1, tag{}, 199, rng)
	if v.Extra != 3 {
		t.Fatalf("t=199: got extra=%d, want 3", v.Extra)
	}
}

func TestPlaneDropShortCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := Scenario{Rules: []Rule{
		{Drop: 1},
		{Duplicate: 1},
	}}
	v := s.FaultPlane().OnSend(0, 1, tag{}, 0, rng)
	if !v.Drop || v.Duplicates != 0 {
		t.Fatalf("got %+v, want pure drop (later rules not consulted)", v)
	}
}

func TestEmptyScenarioHasNilPlane(t *testing.T) {
	s := Scenario{}
	if s.FaultPlane() != nil {
		t.Fatal("no rules must compile to a nil FaultPlane (unhooked hot path)")
	}
}

// runWrapped executes a 4-process cluster where node 0 is `wrapped` around
// a chatty sender and nodes 1..3 record, returning the recorders.
func runWrapped(t *testing.T, wrap func(sim.Node) sim.Node, rounds int) []*recorder {
	t.Helper()
	return runWrappedChatty(t, wrap, &chatty{Rounds: rounds}, false)
}

// runWrappedChatty runs the wrapped chatty node 0 among three recorders.
// With sendOnly set, node 0 runs on an Env that is no sim.Multicaster, as
// the TCP host's is not.
func runWrappedChatty(t *testing.T, wrap func(sim.Node) sim.Node, c *chatty, sendOnly bool) []*recorder {
	t.Helper()
	n := 4
	recs := make([]*recorder, n)
	nodes := make([]sim.Node, n)
	for i := 1; i < n; i++ {
		recs[i] = &recorder{}
		nodes[i] = recs[i]
	}
	nodes[0] = wrap(c)
	if sendOnly {
		nodes[0] = onSendOnlyEnv{nodes[0]}
	}
	r := sim.NewRunner(sim.Config{N: n, Seed: 1}, nodes)
	r.Run(0)
	return recs
}

// sendOnlyEnv hides the simulator Env's sim.Multicaster: a multicast
// through it is one Send per destination.
type sendOnlyEnv struct{ sim.Env }

// onSendOnlyEnv runs its node on a sendOnlyEnv.
type onSendOnlyEnv struct{ sim.Node }

func (o onSendOnlyEnv) Init(env sim.Env) { o.Node.Init(sendOnlyEnv{env}) }

func (o onSendOnlyEnv) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	o.Node.Receive(sendOnlyEnv{env}, from, msg)
}

// wrapperRow is a wrapper test row: a fault on process 0 and the trace it
// gives each receiver.
type wrapperRow struct {
	name  string
	fault NodeFault
	want  map[int][]string
}

// checkWrapperTraces runs each row's fault around a chatty node 0, built
// by mk, twice: on the simulator's Env and on one that is no
// sim.Multicaster. Both runs must give every receiver the row's trace.
func checkWrapperTraces(t *testing.T, rows []wrapperRow, mk func() *chatty) {
	t.Helper()
	for _, tc := range rows {
		for _, sendOnly := range []bool{false, true} {
			recs := runWrappedChatty(t, tc.fault.Wrap, mk(), sendOnly)
			for i, w := range tc.want {
				if fmt.Sprint(recs[i].got) != fmt.Sprint(w) {
					t.Errorf("%s (send-only Env %v): receiver %d got %v, want %v", tc.name, sendOnly, i, recs[i].got, w)
				}
			}
		}
	}
}

func TestSelectiveNode(t *testing.T) {
	allow := types.NewSetOf(4, 0, 1, 2) // exclude 3
	recs := runWrapped(t, Selective(0, allow).Wrap, 3)
	if len(recs[1].got) != 3 || len(recs[2].got) != 3 {
		t.Fatalf("allowed receivers got %d/%d messages, want 3/3", len(recs[1].got), len(recs[2].got))
	}
	if len(recs[3].got) != 0 {
		t.Fatalf("excluded receiver got %d messages, want 0", len(recs[3].got))
	}
}

func TestStaleReplayNode(t *testing.T) {
	recs := runWrapped(t, StaleReplay(0, 1).Wrap, 3)
	// Broadcast chain: {1}, {2}+replay{1}, {3}+replay{1}. Each receiver
	// sees 5 messages, three genuine and two replays of the first.
	for i := 1; i <= 3; i++ {
		replays := 0
		for _, g := range recs[i].got {
			if g == "0:{1}" {
				replays++
			}
		}
		if len(recs[i].got) != 5 || replays != 3 {
			t.Fatalf("receiver %d: got %v, want 5 messages with {1} thrice", i, recs[i].got)
		}
	}
}

func TestEquivocateNode(t *testing.T) {
	groupA := types.NewSetOf(4, 0, 1) // 2 and 3 get the stale stream
	recs := runWrapped(t, Equivocate(0, groupA).Wrap, 3)
	want := map[int][]string{
		1: {"0:{1}", "0:{2}", "0:{3}"}, // genuine stream
		2: {"0:{1}", "0:{2}"},          // one broadcast behind
		3: {"0:{1}", "0:{2}"},
	}
	for i, w := range want {
		if fmt.Sprint(recs[i].got) != fmt.Sprint(w) {
			t.Fatalf("receiver %d: got %v, want %v", i, recs[i].got, w)
		}
	}
}

// TestWrappersActOnMulticasts: a vote goes to its sender's audience by a
// sim.Multicast, which is a list of Sends when the audience is not
// everyone. The Byzantine wrappers must treat it as they treat a
// broadcast: node 0 multicasts three times to {0, 1, 2}, and process 3,
// outside the list, hears nothing under every wrapper.
func TestWrappersActOnMulticasts(t *testing.T) {
	to := []types.ProcessID{0, 1, 2}
	checkWrapperTraces(t, []wrapperRow{
		{"equivocate", Equivocate(0, types.NewSetOf(4, 0, 1)), map[int][]string{
			1: {"0:{1}", "0:{2}", "0:{3}"}, // genuine stream
			2: {"0:{1}", "0:{2}"},          // one multicast behind
			3: nil,
		}},
		{"stale-replay", StaleReplay(0, 1), map[int][]string{
			1: {"0:{1}", "0:{2}", "0:{1}", "0:{3}", "0:{1}"},
			2: {"0:{1}", "0:{2}", "0:{1}", "0:{3}", "0:{1}"},
			3: nil,
		}},
		{"selective", Selective(0, types.NewSetOf(4, 0, 1, 3)), map[int][]string{
			1: {"0:{1}", "0:{2}", "0:{3}"},
			2: nil,
			3: nil,
		}},
	}, func() *chatty { return &chatty{Rounds: 3, To: to} })
}

// TestWrappersKeepReferenceForms: a multicast act carries a message and
// its by-reference form for some recipients. A wrapper that passes an act
// on passes each recipient's form: node 0 multicasts three times to
// {0, 1, 2}, the first by reference to process 1, and then empties the set
// it lent. The genuine stream reaches 1 by reference once; a replay of
// the first act is by reference to 1 still; the previous message an
// equivocator substitutes goes in full.
func TestWrappersKeepReferenceForms(t *testing.T) {
	to := []types.ProcessID{0, 1, 2}
	checkWrapperTraces(t, []wrapperRow{
		{"equivocate", Equivocate(0, types.NewSetOf(4, 0, 1)), map[int][]string{
			1: {"0:ref{1}", "0:{2}", "0:{3}"},
			2: {"0:{1}", "0:{2}"},
			3: nil,
		}},
		{"stale-replay", StaleReplay(0, 1), map[int][]string{
			1: {"0:ref{1}", "0:{2}", "0:ref{1}", "0:{3}", "0:ref{1}"},
			2: {"0:{1}", "0:{2}", "0:{1}", "0:{3}", "0:{1}"},
			3: nil,
		}},
		{"selective", Selective(0, types.NewSetOf(4, 0, 1, 3)), map[int][]string{
			1: {"0:ref{1}", "0:{2}", "0:{3}"},
			2: nil,
			3: nil,
		}},
	}, func() *chatty { return &chatty{Rounds: 3, To: to, RefFirst: types.NewSetOf(4, 0, 1)} })
}

// TestWrappersHonourExcept: an act that leaves one process out (an ECHO
// leaves out its slot's source) reaches it under no wrapper, not even as
// an equivocator's substitute or a replay: node 0 broadcasts three times
// to everyone but process 2.
func TestWrappersHonourExcept(t *testing.T) {
	skip := types.ProcessID(2)
	checkWrapperTraces(t, []wrapperRow{
		{"equivocate", Equivocate(0, types.NewSetOf(4, 0, 1)), map[int][]string{
			1: {"0:{1}", "0:{2}", "0:{3}"},
			2: nil,
			3: {"0:{1}", "0:{2}"},
		}},
		{"stale-replay", StaleReplay(0, 1), map[int][]string{
			1: {"0:{1}", "0:{2}", "0:{1}", "0:{3}", "0:{1}"},
			2: nil,
			3: {"0:{1}", "0:{2}", "0:{1}", "0:{3}", "0:{1}"},
		}},
		{"selective", Selective(0, types.NewSetOf(4, 0, 2, 3)), map[int][]string{
			1: nil,
			2: nil,
			3: {"0:{1}", "0:{2}", "0:{3}"},
		}},
	}, func() *chatty { return &chatty{Rounds: 3, Except: &skip} })
}

func TestWrapNodeAndUnwrap(t *testing.T) {
	inner := &chatty{Rounds: 1}
	s := Scenario{Faults: []NodeFault{
		Selective(0, types.NewSetOf(4, 0, 1)),
		Churn(0, 10, 20, true), // link rules only: no wrapper
		StaleReplay(0, 2),
	}}
	wrapped := s.WrapNode(0, inner)
	if wrapped == sim.Node(inner) {
		t.Fatal("node 0 must be wrapped")
	}
	if got := sim.Unwrap(wrapped); got != sim.Node(inner) {
		t.Fatalf("Unwrap must peel every wrapper: got %T", got)
	}
	if s.WrapNode(1, inner) != sim.Node(inner) {
		t.Fatal("unfaulted process must be returned as-is")
	}
}

func TestFaultySet(t *testing.T) {
	s := Scenario{Faults: []NodeFault{
		Churn(0, 10, 20, true),  // correct
		Churn(1, 10, 20, false), // faulty
		Mute(2),                 // faulty
	}}
	if got := s.FaultySet(4); !got.Equal(types.NewSetOf(4, 1, 2)) {
		t.Fatalf("FaultySet = %v, want {2, 3}", got)
	}
}

func TestBuiltinsRegistry(t *testing.T) {
	defs := Builtins()
	if len(defs) < 5 {
		t.Fatalf("need >= 5 built-in scenarios, have %d", len(defs))
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if d.Name == "" || d.Build == nil {
			t.Fatalf("definition %+v incomplete", d)
		}
		if seen[d.Name] {
			t.Fatalf("duplicate scenario name %q", d.Name)
		}
		seen[d.Name] = true
		sc := d.Build(4, 3)
		if sc.Name != d.Name {
			t.Errorf("Build(%q).Name = %q", d.Name, sc.Name)
		}
		if len(sc.Properties) == 0 {
			t.Errorf("scenario %q declares no properties", d.Name)
		}
	}
	for _, required := range []string{"baseline", "partition-heal", "crash-recover", "dup-reorder", "equivocate"} {
		if _, ok := Find(required); !ok {
			t.Errorf("required built-in %q missing", required)
		}
	}
	if _, ok := Find("no-such-scenario"); ok {
		t.Error("Find must report unknown names")
	}
}

func TestPropertyString(t *testing.T) {
	for p, want := range map[Property]string{
		TotalOrder: "total-order", Agreement: "agreement", Integrity: "integrity",
		Validity: "validity", Liveness: "liveness", Property(99): "Property(99)",
	} {
		if got := p.String(); got != want {
			t.Errorf("Property(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

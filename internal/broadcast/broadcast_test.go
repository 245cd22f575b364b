package broadcast

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// bcNode is a test node that broadcasts an optional input on init and
// records deliveries.
type bcNode struct {
	mk        func(self types.ProcessID, deliver Deliver) Broadcaster
	input     Payload
	bc        Broadcaster
	delivered map[Slot]Payload
}

func (n *bcNode) Init(env sim.Env) {
	n.delivered = map[Slot]Payload{}
	n.bc = n.mk(env.Self(), func(_ sim.Env, slot Slot, p Payload) {
		if _, dup := n.delivered[slot]; dup {
			panic(fmt.Sprintf("double delivery in slot %v", slot))
		}
		n.delivered[slot] = p
	})
	if n.input != nil {
		n.bc.Broadcast(env, 0, n.input)
	}
}

func (n *bcNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	n.bc.Handle(env, from, msg)
}

// equivocator sends payload A to the first half and payload B to the rest.
type equivocator struct{}

func (equivocator) Init(env sim.Env) {
	slot := Slot{Src: env.Self(), Seq: 0}
	for i := 0; i < env.N(); i++ {
		p := Payload(Bytes("AAAA"))
		if i >= env.N()/2 {
			p = Bytes("BBBB")
		}
		EquivocateSend(env, types.ProcessID(i), slot, p)
	}
}

func (equivocator) Receive(sim.Env, types.ProcessID, sim.Message) {}

// partialSender sends its SEND to only the given recipients, then goes mute
// (models a Byzantine sender that tries to split delivery).
type partialSender struct {
	to types.Set
}

func (p *partialSender) Init(env sim.Env) {
	slot := Slot{Src: env.Self(), Seq: 0}
	for _, r := range p.to.Members() {
		EquivocateSend(env, r, slot, Bytes("partial"))
	}
}

func (p *partialSender) Receive(sim.Env, types.ProcessID, sim.Message) {}

func reliableCluster(n int, trust quorum.Assumption, inputs []Payload) []sim.Node {
	nodes := make([]sim.Node, n)
	for i := range nodes {
		var in Payload
		if inputs != nil {
			in = inputs[i]
		}
		nodes[i] = &bcNode{
			mk: func(self types.ProcessID, d Deliver) Broadcaster {
				return NewReliable(self, trust, d)
			},
			input: in,
		}
	}
	return nodes
}

func TestReliableThresholdAllCorrect(t *testing.T) {
	n := 4
	trust := quorum.NewThreshold(n, 1)
	inputs := make([]Payload, n)
	for i := range inputs {
		inputs[i] = Bytes(fmt.Sprintf("value-%d", i))
	}
	nodes := reliableCluster(n, trust, inputs)
	r := sim.NewRunner(sim.Config{N: n, Seed: 1, Latency: sim.UniformLatency{Min: 1, Max: 10}}, nodes)
	r.Run(0)
	for i, nd := range nodes {
		b := nd.(*bcNode)
		if len(b.delivered) != n {
			t.Fatalf("node %d delivered %d slots, want %d", i, len(b.delivered), n)
		}
		for src := 0; src < n; src++ {
			got, ok := b.delivered[Slot{Src: types.ProcessID(src), Seq: 0}]
			if !ok {
				t.Fatalf("node %d missing slot from %d", i, src)
			}
			if got.Key() != inputs[src].Key() {
				t.Fatalf("node %d delivered wrong payload from %d", i, src)
			}
		}
	}
}

func TestReliableAsymmetricAllCorrect(t *testing.T) {
	sys := quorum.Counterexample()
	n := sys.N()
	inputs := make([]Payload, n)
	for i := range inputs {
		inputs[i] = Bytes(fmt.Sprintf("v%d", i))
	}
	nodes := reliableCluster(n, sys, inputs)
	r := sim.NewRunner(sim.Config{N: n, Seed: 7, Latency: sim.UniformLatency{Min: 1, Max: 20}}, nodes)
	r.Run(0)
	for i, nd := range nodes {
		b := nd.(*bcNode)
		if len(b.delivered) != n {
			t.Fatalf("node %d delivered %d slots, want %d", i, len(b.delivered), n)
		}
	}
}

func TestReliableEquivocationConsistency(t *testing.T) {
	// Byzantine node 3 equivocates; n=4, f=1 threshold. No two correct
	// processes may deliver different payloads for node 3's slot.
	for seed := int64(0); seed < 20; seed++ {
		n := 4
		trust := quorum.NewThreshold(n, 1)
		nodes := reliableCluster(n, trust, nil)
		nodes[3] = equivocator{}
		r := sim.NewRunner(sim.Config{N: n, Seed: seed, Latency: sim.UniformLatency{Min: 1, Max: 30}}, nodes)
		r.Run(0)
		slot := Slot{Src: 3, Seq: 0}
		var seen string
		for i := 0; i < 3; i++ {
			b := nodes[i].(*bcNode)
			if p, ok := b.delivered[slot]; ok {
				if seen == "" {
					seen = p.Key()
				} else if seen != p.Key() {
					t.Fatalf("seed %d: conflicting deliveries for equivocated slot", seed)
				}
			}
		}
	}
}

func TestReliableTotalityPartialSend(t *testing.T) {
	// Byzantine sender sends only to {0,1,2} of a 4-process system, then
	// goes mute. Echo amplification must carry delivery to everyone
	// correct (totality): if anyone delivers, all correct deliver.
	n := 4
	trust := quorum.NewThreshold(n, 1)
	nodes := reliableCluster(n, trust, nil)
	nodes[3] = &partialSender{to: types.NewSetOf(n, 0, 1, 2)}
	r := sim.NewRunner(sim.Config{N: n, Seed: 5, Latency: sim.UniformLatency{Min: 1, Max: 10}}, nodes)
	r.Run(0)
	slot := Slot{Src: 3, Seq: 0}
	deliveredCount := 0
	for i := 0; i < 3; i++ {
		if _, ok := nodes[i].(*bcNode).delivered[slot]; ok {
			deliveredCount++
		}
	}
	if deliveredCount != 0 && deliveredCount != 3 {
		t.Fatalf("totality violated: %d of 3 correct processes delivered", deliveredCount)
	}
	if deliveredCount == 0 {
		t.Fatal("expected delivery: SEND reached a full quorum")
	}
}

func TestReliableWithCrashesInFailProneSet(t *testing.T) {
	// Asymmetric random system; crash a set inside a fail-prone set of
	// every process (so everyone is wise). All correct deliver all correct
	// senders' payloads.
	sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{N: 8, NumSets: 3, MaxFault: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	n := sys.N()
	// Find a process that everyone tolerates losing.
	var victim types.ProcessID = -1
	for c := 0; c < n; c++ {
		f := types.NewSetOf(n, types.ProcessID(c))
		if sys.Wise(f).Count() == n-1 && sys.MaximalGuild(f).Count() == n-1 {
			victim = types.ProcessID(c)
			break
		}
	}
	if victim < 0 {
		t.Skip("no universally tolerated victim in this system")
	}
	inputs := make([]Payload, n)
	for i := range inputs {
		inputs[i] = Bytes(fmt.Sprintf("v%d", i))
	}
	nodes := reliableCluster(n, sys, inputs)
	nodes[victim] = &sim.CrashNode{Inner: nodes[victim], CrashAt: 0}
	r := sim.NewRunner(sim.Config{N: n, Seed: 3, Latency: sim.UniformLatency{Min: 1, Max: 15}}, nodes)
	r.Run(0)
	for i, nd := range nodes {
		if types.ProcessID(i) == victim {
			continue
		}
		b := nd.(*bcNode)
		for src := 0; src < n; src++ {
			if types.ProcessID(src) == victim {
				continue
			}
			if _, ok := b.delivered[Slot{Src: types.ProcessID(src), Seq: 0}]; !ok {
				t.Fatalf("node %d missing delivery from correct %d", i, src)
			}
		}
	}
}

func TestForgedSendDropped(t *testing.T) {
	// A message claiming Src != network sender must be ignored.
	n := 4
	trust := quorum.NewThreshold(n, 1)
	nodes := reliableCluster(n, trust, nil)
	// Node 3 forges a SEND claiming to be from node 0.
	forger := &forgeNode{}
	nodes[3] = forger
	r := sim.NewRunner(sim.Config{N: n, Seed: 1}, nodes)
	r.Run(0)
	for i := 0; i < 3; i++ {
		b := nodes[i].(*bcNode)
		if len(b.delivered) != 0 {
			t.Fatalf("node %d delivered a forged broadcast", i)
		}
	}
}

type forgeNode struct{}

func (forgeNode) Init(env sim.Env) {
	for i := 0; i < env.N(); i++ {
		EquivocateSend(env, types.ProcessID(i), Slot{Src: 0, Seq: 0}, Bytes("forged"))
	}
}
func (forgeNode) Receive(sim.Env, types.ProcessID, sim.Message) {}

func TestConsistentBroadcast(t *testing.T) {
	n := 7
	trust := quorum.NewThreshold(n, 2)
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &bcNode{
			mk: func(self types.ProcessID, d Deliver) Broadcaster {
				return NewConsistent(self, trust, d)
			},
			input: Bytes(fmt.Sprintf("c%d", i)),
		}
	}
	r := sim.NewRunner(sim.Config{N: n, Seed: 2, Latency: sim.UniformLatency{Min: 1, Max: 10}}, nodes)
	r.Run(0)
	for i, nd := range nodes {
		b := nd.(*bcNode)
		if len(b.delivered) != n {
			t.Fatalf("node %d delivered %d, want %d", i, len(b.delivered), n)
		}
	}
}

func TestPlainBroadcast(t *testing.T) {
	n := 5
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &bcNode{
			mk: func(self types.ProcessID, d Deliver) Broadcaster {
				return NewPlain(self, d)
			},
			input: Bytes(fmt.Sprintf("p%d", i)),
		}
	}
	r := sim.NewRunner(sim.Config{N: n, Seed: 2}, nodes)
	r.Run(0)
	for i, nd := range nodes {
		b := nd.(*bcNode)
		if len(b.delivered) != n {
			t.Fatalf("node %d delivered %d, want %d", i, len(b.delivered), n)
		}
	}
	// Plain uses exactly n sends per broadcast: n*n total.
	if got := r.Metrics().MessagesSent; got != n*n {
		t.Fatalf("plain broadcast sent %d messages, want %d", got, n*n)
	}
}

func TestReliableMessageComplexity(t *testing.T) {
	// One reliable broadcast among n all-correct processes costs
	// n (SEND) + n*n (ECHO) + n*n (READY) messages.
	n := 4
	trust := quorum.NewThreshold(n, 1)
	nodes := reliableCluster(n, trust, nil)
	nodes[0].(*bcNode).input = Bytes("solo")
	r := sim.NewRunner(sim.Config{N: n, Seed: 1}, nodes)
	r.Run(0)
	want := n + n*n + n*n
	if got := r.Metrics().MessagesSent; got != want {
		t.Fatalf("reliable broadcast sent %d, want %d", got, want)
	}
}

func TestBytesPayload(t *testing.T) {
	a, b := Bytes("x"), Bytes("x")
	if a.Key() != b.Key() {
		t.Error("equal bytes must have equal keys")
	}
	if Bytes("x").Key() == Bytes("y").Key() {
		t.Error("distinct bytes must differ in key")
	}
	if Bytes("abc").SimSize() != 3 {
		t.Error("SimSize should be byte length")
	}
}

func TestConsistentBroadcastEquivocation(t *testing.T) {
	// Consistent broadcast guarantees consistency (no two correct deliver
	// different payloads) but not totality. An equivocating sender on
	// n=4,f=1 must never cause conflicting deliveries.
	for seed := int64(0); seed < 15; seed++ {
		n := 4
		trust := quorum.NewThreshold(n, 1)
		nodes := make([]sim.Node, n)
		for i := 0; i < 3; i++ {
			nodes[i] = &bcNode{
				mk: func(self types.ProcessID, d Deliver) Broadcaster {
					return NewConsistent(self, trust, d)
				},
			}
		}
		nodes[3] = equivocator{}
		r := sim.NewRunner(sim.Config{N: n, Seed: seed, Latency: sim.UniformLatency{Min: 1, Max: 30}}, nodes)
		r.Run(0)
		slot := Slot{Src: 3, Seq: 0}
		var seen string
		for i := 0; i < 3; i++ {
			if p, ok := nodes[i].(*bcNode).delivered[slot]; ok {
				if seen == "" {
					seen = p.Key()
				} else if seen != p.Key() {
					t.Fatalf("seed %d: consistent broadcast delivered conflicting payloads", seed)
				}
			}
		}
	}
}

// pruneEnv is a minimal sim.Env for driving Handle directly in unit
// tests: sends are discarded, time is fixed.
type pruneEnv struct {
	self types.ProcessID
	n    int
}

func (e pruneEnv) Self() types.ProcessID             { return e.self }
func (e pruneEnv) N() int                            { return e.n }
func (e pruneEnv) Now() sim.VirtualTime              { return 0 }
func (e pruneEnv) Send(types.ProcessID, sim.Message) {}
func (e pruneEnv) Broadcast(sim.Message)             {}
func (e pruneEnv) Rand() *rand.Rand                  { return rand.New(rand.NewSource(1)) }

// TestPruneBelowAllBroadcasters pins the bounded-memory contract for all
// three primitives uniformly: slots below the watermark are discarded,
// late messages for pruned slots are dropped without resurrecting state
// or re-delivering, and slots at/above the watermark survive.
// (Regression: Consistent and Plain used to have no prune path at all,
// so their per-slot maps grew for the lifetime of the node.)
func TestPruneBelowAllBroadcasters(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	cases := []struct {
		name string
		mk   func(deliver Deliver) Broadcaster
	}{
		{"Reliable", func(d Deliver) Broadcaster { return NewReliable(0, trust, d) }},
		{"Consistent", func(d Deliver) Broadcaster { return NewConsistent(0, trust, d) }},
		{"Plain", func(d Deliver) Broadcaster { return NewPlain(0, d) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deliveries := 0
			bc := tc.mk(func(sim.Env, Slot, Payload) { deliveries++ })
			env := pruneEnv{self: 0, n: 4}
			// Open per-slot state for seqs 0..4 from sender 1.
			for seq := uint64(0); seq < 5; seq++ {
				for from := types.ProcessID(1); from < 2; from++ {
					bc.Handle(env, from, sendMsg{Slot: Slot{Src: 1, Seq: seq}, Payload: Bytes("x")})
				}
			}
			if got := bc.SlotCount(); got != 5 {
				t.Fatalf("before prune: SlotCount = %d, want 5", got)
			}
			bc.PruneBelow(3)
			if got := bc.SlotCount(); got != 2 {
				t.Fatalf("after PruneBelow(3): SlotCount = %d, want 2", got)
			}
			delivered := deliveries
			// A late message for a pruned slot must not reopen state or
			// deliver again.
			bc.Handle(env, 1, sendMsg{Slot: Slot{Src: 1, Seq: 1}, Payload: Bytes("x")})
			bc.Handle(env, 1, echoMsg{Slot: Slot{Src: 1, Seq: 1}, Payload: Bytes("x")})
			if got := bc.SlotCount(); got != 2 {
				t.Fatalf("late message reopened pruned slot: SlotCount = %d, want 2", got)
			}
			if deliveries != delivered {
				t.Fatalf("late message below the watermark was re-delivered")
			}
			// The watermark only ratchets forward.
			bc.PruneBelow(1)
			if got := bc.SlotCount(); got != 2 {
				t.Fatalf("PruneBelow moved backwards: SlotCount = %d, want 2", got)
			}
		})
	}
}

// countedPayload is a Payload whose Key reports every call.
type countedPayload struct{ calls *int }

func (p countedPayload) Key() string { *p.calls++; return "counted" }

// queueEnv is a sim.Env that appends every send to a shared FIFO, for
// stepping a cluster of Broadcasters message by message.
type queueEnv struct {
	pruneEnv
	queue *[]queuedMsg
}

type queuedMsg struct {
	from, to types.ProcessID
	msg      sim.Message
}

func (e queueEnv) Send(to types.ProcessID, msg sim.Message) {
	*e.queue = append(*e.queue, queuedMsg{from: e.self, to: to, msg: msg})
}

func (e queueEnv) Broadcast(msg sim.Message) {
	for to := 0; to < e.n; to++ {
		e.Send(types.ProcessID(to), msg)
	}
}

// TestReliableKeyCallsPerMessage pins what a slot costs in Key calls,
// which for a DAG vertex is a serialisation of the whole block: a SEND is
// relayed without looking at the payload's key, and an ECHO or READY
// computes it exactly once to find its tracker.
func TestReliableKeyCallsPerMessage(t *testing.T) {
	const n = 4
	trust := quorum.NewThreshold(n, 1)
	var queue []queuedMsg
	var calls, deliveries int
	envs := make([]queueEnv, n)
	nodes := make([]*Reliable, n)
	for i := range nodes {
		envs[i] = queueEnv{pruneEnv: pruneEnv{self: types.ProcessID(i), n: n}, queue: &queue}
		nodes[i] = NewReliable(types.ProcessID(i), trust, func(sim.Env, Slot, Payload) { deliveries++ })
	}
	nodes[0].Broadcast(envs[0], 0, countedPayload{calls: &calls})

	handled := map[string]int{}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		before := calls
		nodes[m.to].Handle(envs[m.to], m.from, m.msg)
		kind, want := "SEND", 0
		switch m.msg.(type) {
		case echoMsg:
			kind, want = "ECHO", 1
		case readyMsg:
			kind, want = "READY", 1
		}
		handled[kind]++
		if got := calls - before; got != want {
			t.Fatalf("handling a %s made %d Key calls, want %d", kind, got, want)
		}
	}
	if handled["SEND"] != n || handled["ECHO"] != n*n || handled["READY"] != n*n {
		t.Fatalf("handled %v, want %d SEND and %d each of ECHO and READY", handled, n, n*n)
	}
	if deliveries != n {
		t.Fatalf("%d of %d processes delivered", deliveries, n)
	}
}

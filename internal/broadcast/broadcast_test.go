package broadcast

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/dag"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
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

// equivocator sends process i the SEND of sends[i]; with votes set it
// also sends ECHO and READY for A and B to everyone, the most a single
// Byzantine process can do to get two digests delivered.
type equivocator struct {
	sends []Payload
	votes bool
}

func (e equivocator) Init(env sim.Env) {
	slot := Slot{Src: env.Self(), Seq: 0}
	for i, p := range e.sends {
		EquivocateSend(env, types.ProcessID(i), slot, p)
	}
	if e.votes {
		for _, d := range []Digest{Bytes("AAAA").Digest(), Bytes("BBBB").Digest()} {
			sim.Multicast(env, sim.Cast{Msg: echoMsg{&vote{Slot: slot, Digest: d}}})
			sim.Multicast(env, sim.Cast{Msg: readyMsg{&vote{Slot: slot, Digest: d}}})
		}
	}
}

func (equivocator) Receive(sim.Env, types.ProcessID, sim.Message) {}

// partialSender sends its SEND to only the given recipients and otherwise
// follows the protocol (models a sender that tries to split delivery, or
// equally a SEND that asynchrony delays past the end of the run).
type partialSender struct {
	bcNode
	to types.Set
}

func (p *partialSender) Init(env sim.Env) {
	p.bcNode.Init(env)
	slot := Slot{Src: env.Self(), Seq: 0}
	for _, r := range p.to.Members() {
		EquivocateSend(env, r, slot, Bytes("partial"))
	}
}

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
			if got.Digest() != inputs[src].Digest() {
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
	//
	// Split two ways, receivers 0 and 1 hold A and receiver 2 holds B. Each
	// SEND is node 3's ECHO at its receiver, so A has an ECHO quorum at 0
	// and 1 (3's, 0's and 1's) with no further vote from 3: all three
	// deliver A, process 2 by fetching what it was never sent. When node 3
	// also votes for both, they deliver A all the same.
	//
	// Split three ways, A, B and C one receiver each, no digest has more
	// than two ECHOs (3's SEND and its receiver's own), short of a quorum,
	// and nothing is delivered.
	a, b, c := Bytes("AAAA"), Bytes("BBBB"), Bytes("CCCC")
	for _, tc := range []struct {
		sends []Payload
		votes bool
		wantA int
	}{
		{[]Payload{a, a, b, b}, false, 3},
		{[]Payload{a, a, b, b}, true, 3},
		{[]Payload{a, b, c, c}, false, 0},
	} {
		votes := tc.votes
		for seed := int64(0); seed < 20; seed++ {
			n := 4
			trust := quorum.NewThreshold(n, 1)
			nodes := reliableCluster(n, trust, nil)
			nodes[3] = equivocator{sends: tc.sends, votes: votes}
			r := sim.NewRunner(sim.Config{N: n, Seed: seed, Latency: sim.UniformLatency{Min: 1, Max: 30}}, nodes)
			r.Run(0)
			slot := Slot{Src: 3, Seq: 0}
			delivered := map[Digest]int{}
			for i := 0; i < 3; i++ {
				if p, ok := nodes[i].(*bcNode).delivered[slot]; ok {
					delivered[p.Digest()]++
				}
			}
			if len(delivered) > 1 {
				t.Fatalf("sends %q votes %v seed %d: conflicting deliveries for equivocated slot", tc.sends, votes, seed)
			}
			if got := delivered[a.Digest()]; got != tc.wantA || len(delivered) > min(got, 1) {
				t.Fatalf("sends %q votes %v seed %d: delivered %v; want A at %d correct processes and nothing else", tc.sends, votes, seed, delivered, tc.wantA)
			}
		}
	}
}

// TestReliableTotalityPartialSend: the sender's SEND never reaches one
// member of the maximal guild. The others deliver through ECHO and READY
// quorums; the omitted member sees only digests, so totality reaches it
// through R2's fetch and nothing else — on the threshold system and on the
// paper's Fig. 1 system, where the sets that vouch for the digest are the
// receiver's own single quorum and its kernels. (Fig. 1 tolerates no
// fault: the sender is correct there and its SEND to the omitted member is
// delayed past the end of the run.)
func TestReliableTotalityPartialSend(t *testing.T) {
	cases := []struct {
		name            string
		trust           quorum.Assumption
		sender, omitted types.ProcessID
	}{
		{"threshold n=4", quorum.NewThreshold(4, 1), 3, 2},
		{"Fig. 1", quorum.Counterexample(), 29, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.trust.N()
			guild := types.FullSet(n)
			if sys, ok := tc.trust.(*quorum.System); ok {
				guild = sys.MaximalGuild(types.NewSet(n))
			}
			if !guild.Contains(tc.omitted) {
				t.Fatalf("omitted process %v is not in the maximal guild %v", tc.omitted, guild)
			}
			to := types.FullSet(n)
			to.Remove(tc.omitted)
			nodes := reliableCluster(n, tc.trust, nil)
			sender := &partialSender{bcNode: *nodes[tc.sender].(*bcNode), to: to}
			nodes[tc.sender] = sender
			r := sim.NewRunner(sim.Config{N: n, Seed: 5, Latency: sim.UniformLatency{Min: 1, Max: 10}}, nodes)
			r.Run(0)
			slot := Slot{Src: tc.sender, Seq: 0}
			want := Bytes("partial").Digest()
			guild.ForEach(func(p types.ProcessID) bool {
				b, ok := nodes[p].(*bcNode)
				if !ok {
					b = &sender.bcNode
				}
				if got, ok := b.delivered[slot]; !ok {
					t.Errorf("totality violated: guild member %v did not deliver", p)
				} else if got.Digest() != want {
					t.Errorf("guild member %v delivered another payload", p)
				}
				return true
			})
			// R2 asks only voters, and only the processes in U_omitted,
			// the union of its quorums, send it votes.
			voters := 0
			for p := 0; p < n; p++ {
				if types.ProcessID(p) != tc.omitted && tc.trust.Counts(tc.omitted, types.ProcessID(p)) {
					voters++
				}
			}
			by := r.Metrics().ByType
			fetches, replies := by["broadcast.fetchMsg"], by["broadcast.payloadMsg"]
			t.Logf("%d fetch requests, %d replies", fetches, replies)
			if fetches < 1 || fetches > voters || replies < 1 || replies > fetches {
				t.Fatalf("%d fetch requests and %d replies, want 1..%d requests from the one omitted process and at most a reply to each", fetches, replies, voters)
			}
		})
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
	nodes[victim] = sim.MuteNode{}
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
	// Plain uses exactly n−1 sends per broadcast, one per link (the
	// sender's own copy is free): n*(n−1) total.
	if got := r.Metrics().MessagesSent; got != n*(n-1) {
		t.Fatalf("plain broadcast sent %d messages, want %d", got, n*(n-1))
	}
}

// TestReliableMessageComplexity counts one honest slot's messages by type,
// as links carry them: a process's copy to itself is free. The SEND goes
// to the n−1 other processes, and each READY only to the voter's
// audience, the processes whose quorums contain it: n(n−1) = 12 under
// threshold(4, 1), and on the Fig. 1 system, where every process has one
// quorum of 6, 169 of the 870 links (quorum.VotePairs). The SEND is its
// source's ECHO, so the source echoes nothing, and the ECHOs cross those
// links less the source's audience but itself: 12 − 3 = 9 and
// 169 − 16 = 153. Every receiver counts the SEND as the source's ECHO
// before it echoes, so its ECHO goes to the source by reference wherever
// it goes to the source at all: from the 3 others under threshold trust,
// and from the 4 of Fig. 1's 16 that also lie in U_p1. On this seed the
// SEND reaches every receiver before any other ECHO, so the other ECHOs go
// in full, and every READY goes by reference.
func TestReliableMessageComplexity(t *testing.T) {
	for _, tc := range []struct {
		name              string
		trust             quorum.Assumption
		send, echo, ready int
		echoRef, readyRef int
	}{
		{"threshold n=4", quorum.NewThreshold(4, 1), 3, 9, 12, 3, 12},
		{"Fig. 1", quorum.Counterexample(), 29, 153, 169, 4, 169},
	} {
		n := tc.trust.N()
		nodes := reliableCluster(n, tc.trust, nil)
		nodes[0].(*bcNode).input = Bytes("solo")
		r := sim.NewRunner(sim.Config{N: n, Seed: 1}, nodes)
		r.Run(0)
		for i, nd := range nodes {
			if len(nd.(*bcNode).delivered) != 1 {
				t.Fatalf("%s: process %d did not deliver", tc.name, i)
			}
		}
		m := r.Metrics()
		by := m.ByType
		send, fetch := by["broadcast.sendMsg"], by["broadcast.fetchMsg"]
		echoRef, readyRef := by["broadcast.echoRefMsg"], by["broadcast.readyRefMsg"]
		echo, ready := by["broadcast.echoMsg"]+echoRef, by["broadcast.readyMsg"]+readyRef
		if send != tc.send || echo != tc.echo || ready != tc.ready || fetch != 0 || m.MessagesSent != send+echo+ready {
			t.Fatalf("%s: one slot sent %d SEND, %d ECHO, %d READY and %d FETCH of %d messages, want %d, %d, %d, 0 and nothing else",
				tc.name, send, echo, ready, fetch, m.MessagesSent, tc.send, tc.echo, tc.ready)
		}
		if echoRef != tc.echoRef || readyRef != tc.readyRef {
			t.Fatalf("%s: %d ECHOs and %d READYs by reference, want %d and %d", tc.name, echoRef, readyRef, tc.echoRef, tc.readyRef)
		}
	}
}

func TestBytesPayload(t *testing.T) {
	a, b := Bytes("x"), Bytes("x")
	if a.Digest() != b.Digest() {
		t.Error("equal bytes must have equal digests")
	}
	if Bytes("x").Digest() == Bytes("y").Digest() {
		t.Error("distinct bytes must differ in digest")
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

// TestPruneBelowAllBroadcasters pins Reliable's bounded-memory contract
// (Plain keeps only its delivered markers and no watermark): slots below
// the watermark are discarded, late messages for pruned slots are dropped
// without resurrecting state or re-delivering, and slots at/above the
// watermark survive. The discarded state includes the held payload and
// the fetch bookkeeping: a pruned slot answers no fetch and accepts no
// reply.
func TestPruneBelowAllBroadcasters(t *testing.T) {
	t.Run("Reliable", func(t *testing.T) {
		deliveries := 0
		bc := NewReliable(0, quorum.NewThreshold(4, 1), func(sim.Env, Slot, Payload) { deliveries++ })
		var sent []queuedMsg
		env := queueEnv{pruneEnv: pruneEnv{self: 0, n: 4}, queue: &sent}
		x := Bytes("x")
		// Open per-slot state for seqs 0..4 from sender 1; in slot 0 of
		// source 2 leave a fetch running (an ECHO quorum, no SEND).
		for seq := uint64(0); seq < 5; seq++ {
			bc.Handle(env, 1, sendMsg{&send{Slot: Slot{Src: 1, Seq: seq}, Payload: x}})
		}
		for from := types.ProcessID(1); from < 4; from++ {
			bc.Handle(env, from, echoMsg{&vote{Slot: Slot{Src: 2, Seq: 0}, Digest: x.Digest()}})
		}
		if got := bc.SlotCount(); got != 6 {
			t.Fatalf("before prune: SlotCount = %d, want 6", got)
		}
		bc.PruneBelow(3)
		if got := bc.SlotCount(); got != 2 {
			t.Fatalf("after PruneBelow(3): SlotCount = %d, want 2", got)
		}
		delivered := deliveries
		// Late messages for a pruned slot must not reopen state, be
		// answered, or deliver again.
		sent = sent[:0]
		bc.Handle(env, 1, sendMsg{&send{Slot: Slot{Src: 1, Seq: 1}, Payload: x}})
		bc.Handle(env, 1, echoMsg{&vote{Slot: Slot{Src: 1, Seq: 1}, Digest: x.Digest()}})
		bc.Handle(env, 1, readyMsg{&vote{Slot: Slot{Src: 1, Seq: 1}, Digest: x.Digest()}})
		bc.Handle(env, 3, fetchMsg{&vote{Slot: Slot{Src: 1, Seq: 1}, Digest: x.Digest()}})
		bc.Handle(env, 1, payloadMsg{&send{Slot: Slot{Src: 2, Seq: 0}, Payload: x}})
		if got := bc.SlotCount(); got != 2 {
			t.Fatalf("late message reopened pruned slot: SlotCount = %d, want 2", got)
		}
		if deliveries != delivered || len(sent) != 0 {
			t.Fatalf("late messages below the watermark: %d deliveries, sent %v", deliveries-delivered, sent)
		}
		// A live slot still serves its payload, once per requester.
		bc.Handle(env, 3, fetchMsg{&vote{Slot: Slot{Src: 1, Seq: 4}, Digest: x.Digest()}})
		bc.Handle(env, 3, fetchMsg{&vote{Slot: Slot{Src: 1, Seq: 4}, Digest: x.Digest()}})
		if len(sent) != 1 || sent[0].to != 3 {
			t.Fatalf("two fetches of a held payload by one requester: sent %v, want one reply", sent)
		}
		// The watermark only ratchets forward.
		bc.PruneBelow(1)
		if got := bc.SlotCount(); got != 2 {
			t.Fatalf("PruneBelow moved backwards: SlotCount = %d, want 2", got)
		}
	})
}

// countedPayload is a Payload whose Digest reports every call.
type countedPayload struct{ calls *int }

func (p countedPayload) Digest() Digest { *p.calls++; return Digest{1} }

// queueEnv is a sim.Env that appends every send to a shared FIFO, for
// stepping Broadcasters message by message.
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

// TestReliableDigestCallsPerMessage pins what a slot costs in Digest
// calls, which for a payload that does not cache it is a hash of the whole
// block: one in Broadcast, at most one per handled SEND, none for an ECHO
// or a READY, and n in all. The source hashes in Broadcast and not again
// when its own SEND comes back. It casts no ECHO, so n(n − 1) = 12 ECHOs
// and n² = 16 READYs are handled.
func TestReliableDigestCallsPerMessage(t *testing.T) {
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
	if calls != 1 {
		t.Fatalf("Broadcast made %d Digest calls, want 1", calls)
	}

	handled := map[string]int{}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		before := calls
		nodes[m.to].Handle(envs[m.to], m.from, m.msg)
		kind, most := "SEND", 1
		switch m.msg.(type) {
		case echoMsg, echoRefMsg:
			kind, most = "ECHO", 0
		case readyMsg, readyRefMsg:
			kind, most = "READY", 0
		}
		handled[kind]++
		if got := calls - before; got > most {
			t.Fatalf("handling a %s made %d Digest calls, want at most %d", kind, got, most)
		}
	}
	if handled["SEND"] != n || handled["ECHO"] != n*(n-1) || handled["READY"] != n*n || len(handled) != 3 {
		t.Fatalf("handled %v, want %d SEND, %d ECHO and %d READY", handled, n, n*(n-1), n*n)
	}
	if calls != n {
		t.Fatalf("%d Digest calls in all, want %d", calls, n)
	}
	if deliveries != n {
		t.Fatalf("%d of %d processes delivered", deliveries, n)
	}
}

// stepper drives one Reliable (process 0 of n=4, f=1: quorum 3, kernel 2)
// by hand and records what it sends and delivers.
type stepper struct {
	t         *testing.T
	r         *Reliable
	env       queueEnv
	sent      []queuedMsg
	delivered []Payload
}

func newStepper(t *testing.T) *stepper {
	s := &stepper{t: t}
	s.env = queueEnv{pruneEnv: pruneEnv{self: 0, n: 4}, queue: &s.sent}
	s.r = NewReliable(0, quorum.NewThreshold(4, 1), func(_ sim.Env, _ Slot, p Payload) {
		s.delivered = append(s.delivered, p)
	})
	return s
}

func (s *stepper) handle(from types.ProcessID, msg sim.Message) {
	s.r.Handle(s.env, from, msg)
}

// take returns and clears the messages sent since the last call, as
// "<type>→<to>" strings with broadcasts folded into "<type>→all", named by
// the copy to process 0 itself: that copy is always full, while a vote may
// go to others by reference (refs shows which).
func (s *stepper) take() []string {
	var out []string
	for i := 0; i < len(s.sent); i++ {
		m := s.sent[i]
		name := fmt.Sprintf("%T", m.msg)[len("broadcast."):]
		if _, voted := m.msg.(fetchMsg); !voted && m.to == 0 && i+4 <= len(s.sent) && s.sent[i+3].to == 3 {
			out = append(out, name+"→all") // only broadcasts reach process 0 itself
			i += 3
			continue
		}
		out = append(out, fmt.Sprintf("%s→%d", name, m.to))
	}
	s.sent = s.sent[:0]
	return out
}

func (s *stepper) expect(what string, want ...string) {
	s.t.Helper()
	if got := s.take(); fmt.Sprint(got) != fmt.Sprint(want) {
		s.t.Fatalf("%s: sent %v, want %v", what, got, want)
	}
}

// TestReliableR1HoldBeforeReady pins R1 and R2: an ECHO quorum that
// overtakes the SEND starts a fetch and releases no READY; the READY — one
// — leaves when the SEND or a valid reply supplies the payload, and the
// READY quorum then delivers it.
func TestReliableR1HoldBeforeReady(t *testing.T) {
	slot := Slot{Src: 1, Seq: 7}
	x := Bytes("block")
	d := x.Digest()
	for _, supply := range []string{"SEND", "reply"} {
		t.Run(supply, func(t *testing.T) {
			s := newStepper(t)
			s.handle(1, echoMsg{&vote{Slot: slot, Digest: d}})
			s.handle(2, echoMsg{&vote{Slot: slot, Digest: d}})
			s.expect("below the quorum")
			s.handle(3, echoMsg{&vote{Slot: slot, Digest: d}})
			s.expect("ECHO quorum without the payload", "fetchMsg→1", "fetchMsg→2", "fetchMsg→3")
			s.handle(3, echoMsg{&vote{Slot: slot, Digest: d}}) // duplicate vote: nobody is asked twice
			s.handle(2, readyMsg{&vote{Slot: slot, Digest: d}})
			s.expect("later votes of peers already asked")
			if supply == "SEND" {
				s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
				s.expect("the SEND arrives", "echoMsg→all", "readyMsg→all")
			} else {
				s.handle(3, payloadMsg{&send{Slot: slot, Payload: x}})
				s.expect("a valid reply arrives", "readyMsg→all")
			}
			s.handle(1, payloadMsg{&send{Slot: slot, Payload: x}})
			s.handle(0, readyMsg{&vote{Slot: slot, Digest: d}})
			s.handle(1, readyMsg{&vote{Slot: slot, Digest: d}})
			s.expect("second reply, READY quorum")
			if len(s.delivered) != 1 || s.delivered[0].Digest() != d {
				t.Fatalf("delivered %v, want the block once", s.delivered)
			}
		})
	}
}

// TestReliableLateSend: the SEND arrives after the READY quorum. The slot
// completes from the SEND alone — its ECHO, its READY, the delivery — with
// no further fetch, and the replies that come in afterwards change nothing.
func TestReliableLateSend(t *testing.T) {
	slot := Slot{Src: 1, Seq: 7}
	x := Bytes("block")
	d := x.Digest()
	s := newStepper(t)
	s.handle(1, readyMsg{&vote{Slot: slot, Digest: d}})
	s.expect("one READY")
	s.handle(2, readyMsg{&vote{Slot: slot, Digest: d}})
	s.expect("READY kernel without the payload", "fetchMsg→1", "fetchMsg→2")
	s.handle(3, readyMsg{&vote{Slot: slot, Digest: d}})
	s.expect("READY quorum without the payload", "fetchMsg→3")
	if len(s.delivered) != 0 {
		t.Fatal("delivered a payload it does not hold")
	}
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
	s.expect("late SEND", "echoMsg→all", "readyMsg→all")
	if len(s.delivered) != 1 || s.delivered[0].Digest() != d {
		t.Fatalf("delivered %v, want the block once", s.delivered)
	}
	s.handle(2, payloadMsg{&send{Slot: slot, Payload: x}})
	s.handle(0, echoMsg{&vote{Slot: slot, Digest: d}})
	s.handle(0, readyMsg{&vote{Slot: slot, Digest: d}})
	s.expect("after delivery")
	if len(s.delivered) != 1 {
		t.Fatal("delivered twice")
	}
	// The slot is served until it is pruned, also after delivery.
	s.handle(3, fetchMsg{&vote{Slot: slot, Digest: d}})
	s.expect("fetch after delivery", "payloadMsg→3")
}

// TestReliableForgedPayloadReply: a reply with the wrong content, from a
// peer that was not asked, for a slot that does not exist or is pruned, or
// for a digest nothing waits for, changes no state, allocates no slot and
// leaves the fetch running until a valid reply ends it.
func TestReliableForgedPayloadReply(t *testing.T) {
	slot := Slot{Src: 1, Seq: 7}
	x := Bytes("block")
	d := x.Digest()
	s := newStepper(t)
	s.r.PruneBelow(5)
	s.handle(1, readyMsg{&vote{Slot: slot, Digest: d}})
	s.handle(1, payloadMsg{&send{Slot: slot, Payload: x}}) // no fetch is running yet
	s.handle(2, readyMsg{&vote{Slot: slot, Digest: d}})
	s.expect("READY kernel without the payload", "fetchMsg→1", "fetchMsg→2")

	s.handle(1, payloadMsg{&send{Slot: slot, Payload: Bytes("forged")}})       // wrong digest
	s.handle(3, payloadMsg{&send{Slot: slot, Payload: x}})                     // never asked
	s.handle(1, payloadMsg{&send{Slot: Slot{Src: 1, Seq: 8}, Payload: x}})     // unknown slot
	s.handle(1, payloadMsg{&send{Slot: Slot{Src: 1, Seq: 2}, Payload: x}})     // below the watermark
	s.handle(1, payloadMsg{&send{Slot: slot, Payload: nil}})                   // no content
	s.handle(1, fetchMsg{&vote{Slot: Slot{Src: 1, Seq: 9}, Digest: d}})        // fetch of an unknown slot
	s.handle(1, fetchMsg{&vote{Slot: slot, Digest: d}})                        // fetch of a payload not held
	s.handle(1, fetchMsg{&vote{Slot: slot, Digest: Bytes("forged").Digest()}}) // fetch of an unknown digest
	s.expect("forged and unsolicited replies, unanswerable fetches")
	if got := s.r.SlotCount(); got != 1 {
		t.Fatalf("SlotCount = %d after forged replies, want 1", got)
	}
	if st := s.r.find(slot); len(st.others) != 0 || st.first != d || st.value.payload != nil {
		t.Fatalf("forged replies changed the slot: %d further digests, payload %v", len(st.others), st.value.payload)
	}
	s.handle(3, echoMsg{&vote{Slot: slot, Digest: d}})
	s.expect("a later voter is asked too", "fetchMsg→3")
	s.handle(2, payloadMsg{&send{Slot: slot, Payload: x}})
	s.expect("valid reply", "readyMsg→all")
}

// TestReliableReplyNotNeededIsDropped: a solicited, valid reply that
// arrives when no rule waits for its digest any more is not stored, so a
// slot holds what it echoed plus at most one payload per rule.
func TestReliableReplyNotNeededIsDropped(t *testing.T) {
	slot := Slot{Src: 1, Seq: 7}
	x, y := Bytes("block"), Bytes("other")
	s := newStepper(t)
	for from := types.ProcessID(1); from < 4; from++ {
		s.handle(from, echoMsg{&vote{Slot: slot, Digest: y.Digest()}})
	}
	s.expect("ECHO quorum for y", "fetchMsg→1", "fetchMsg→2", "fetchMsg→3")
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
	s.expect("SEND of x", "echoMsg→all")
	for from := types.ProcessID(1); from < 4; from++ {
		s.handle(from, readyMsg{&vote{Slot: slot, Digest: x.Digest()}})
	}
	s.expect("READY kernel and quorum for x", "readyMsg→all")
	if len(s.delivered) != 1 {
		t.Fatal("x not delivered")
	}
	s.handle(1, payloadMsg{&send{Slot: slot, Payload: y}})
	if got := s.r.find(slot).lookup(y.Digest()).payload; got != nil {
		t.Fatalf("stored %v after the slot was done", got)
	}
}

// TestReliableFetchOncePerPeer: at n=4 the votes overtake the SEND, so R1
// blocks and R2 fetches. FETCH goes out once to each voter, however many
// votes it casts, and PAYLOAD once to each requester, however often it
// asks, both before delivery and after. The digest borrows one pair of fetch
// sets, keeps it past delivery and hands it back when the slot is pruned.
func TestReliableFetchOncePerPeer(t *testing.T) {
	slot := Slot{Src: 1, Seq: 7}
	x := Bytes("block")
	d := x.Digest()
	s := newStepper(t)
	s.handle(2, readyMsg{&vote{Slot: slot, Digest: d}})
	s.handle(3, readyMsg{&vote{Slot: slot, Digest: d}})
	s.expect("READY kernel without the payload", "fetchMsg→2", "fetchMsg→3")
	s.handle(2, echoMsg{&vote{Slot: slot, Digest: d}})
	s.handle(3, echoMsg{&vote{Slot: slot, Digest: d}})
	s.handle(1, echoMsg{&vote{Slot: slot, Digest: d}})
	s.expect("ECHOs of the voters asked and of one new voter", "fetchMsg→1")
	s.handle(2, fetchMsg{&vote{Slot: slot, Digest: d}})
	s.expect("a FETCH of a payload not held yet")
	s.handle(3, payloadMsg{&send{Slot: slot, Payload: x}})
	s.expect("a valid reply", "readyMsg→all")

	st := s.r.find(slot)
	if st.delivered || st.value.fetch == nil || s.r.fetchCut-len(s.r.fetchPool) != 1 {
		t.Fatalf("before delivery: delivered %v, fetch sets %p, %d of %d pairs pooled, want one in use",
			st.delivered, st.value.fetch, len(s.r.fetchPool), s.r.fetchCut)
	}
	s.handle(2, fetchMsg{&vote{Slot: slot, Digest: d}})
	s.handle(2, fetchMsg{&vote{Slot: slot, Digest: d}})
	s.handle(3, fetchMsg{&vote{Slot: slot, Digest: d}})
	s.expect("FETCHes before delivery", "payloadMsg→2", "payloadMsg→3")

	s.handle(1, readyMsg{&vote{Slot: slot, Digest: d}})
	s.expect("READY quorum")
	if len(s.delivered) != 1 || s.delivered[0].Digest() != d {
		t.Fatalf("delivered %v, want the block once", s.delivered)
	}
	if st.value.tally != nil || st.value.fetch == nil {
		t.Fatalf("after delivery: tally %p, fetch sets %p, want the tally back and the fetch sets kept", st.value.tally, st.value.fetch)
	}
	s.handle(1, echoMsg{&vote{Slot: slot, Digest: d}})
	s.handle(0, readyMsg{&vote{Slot: slot, Digest: d}})
	s.handle(3, payloadMsg{&send{Slot: slot, Payload: x}})
	s.handle(2, fetchMsg{&vote{Slot: slot, Digest: d}})
	s.handle(3, fetchMsg{&vote{Slot: slot, Digest: d}})
	s.handle(1, fetchMsg{&vote{Slot: slot, Digest: d}})
	s.handle(1, fetchMsg{&vote{Slot: slot, Digest: d}})
	s.expect("votes, a reply and FETCHes after delivery", "payloadMsg→1")
	if s.r.fetchCut-len(s.r.fetchPool) != 1 {
		t.Fatalf("%d of %d pairs of fetch sets pooled, want one in use", len(s.r.fetchPool), s.r.fetchCut)
	}

	s.r.PruneBelow(slot.Seq + 1)
	requireEmptyRows(t, s.r.free)
	requireEmptyPool(t, s.r)
}

// TestSlotSize pins the slot layout: R2's fetch sets live behind a pointer,
// so a slot of the GC window is at most 80 bytes on a 64-bit platform.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(rbSlot{}); got > 80 {
		t.Fatalf("rbSlot is %d bytes, want at most 80", got)
	}
}

// requireEmptyRows fails t unless every slot of every row is as a fresh
// row's: no payload, tally, fetch sets, sent flags or further digests.
func requireEmptyRows(t *testing.T, rows [][]rbSlot) {
	t.Helper()
	for j, row := range rows {
		for i := range row {
			st, v := &row[i], &row[i].value
			if st.live || st.sentEcho || st.sentReady || st.delivered || st.first != (Digest{}) || st.others != nil ||
				st.held != 0 || v.payload != nil || v.tally != nil || v.fetch != nil {
				t.Fatalf("free row %d slot %d not empty: %+v", j, i, *st)
			}
		}
	}
}

// requireEmptyPool fails t unless every tally, every pair of fetch sets
// and every held set r cut is back on its pool, as they are when no slot
// is live, and every pooled tracker and set is as a fresh one: no votes,
// no quorum, no kernel, no member.
func requireEmptyPool(t *testing.T, r *Reliable) {
	t.Helper()
	if len(r.pool) != r.cut {
		t.Fatalf("%d of %d tallies on the pool, want all", len(r.pool), r.cut)
	}
	for j, tl := range r.pool {
		for k := range tl.votes {
			if tr := &tl.votes[k]; tr.Count() != 0 || tr.HasQuorum() || tr.HasKernel() {
				t.Fatalf("pooled tally %d tracker %d not empty: %d votes, quorum %v, kernel %v", j, k, tr.Count(), tr.HasQuorum(), tr.HasKernel())
			}
		}
		if tl.echo != nil {
			t.Fatalf("pooled tally %d keeps an ECHO body %v", j, *tl.echo)
		}
	}
	if len(r.fetchPool) != r.fetchCut {
		t.Fatalf("%d of %d pairs of fetch sets on the pool, want all", len(r.fetchPool), r.fetchCut)
	}
	for j, f := range r.fetchPool {
		if !f[asked].IsEmpty() || !f[served].IsEmpty() {
			t.Fatalf("pooled pair of fetch sets %d not empty: asked %v, served %v", j, f[asked], f[served])
		}
	}
	if cut := heldCut(r); len(r.heldFree) != cut {
		t.Fatalf("%d of %d held sets on the free list, want all", len(r.heldFree), cut)
	}
	for j, w := range r.heldWords {
		if w != 0 {
			t.Fatalf("free held sets not empty: word %d is %#x", j, w)
		}
	}
}

// heldCut returns the number of held sets r cut.
func heldCut(r *Reliable) int { return len(r.heldWords) / r.heldWordsPer }

// holds reports whether slot st of r holds a READY by reference of p.
func holds(r *Reliable, st *rbSlot, p types.ProcessID) bool {
	if st.held == 0 {
		return false
	}
	w, bit := r.heldBit(st, p)
	return *w&bit != 0
}

// TestReliableRowRecycled: PruneBelow empties a row — payloads, votes,
// fetch sets, sent flags and an equivocation's further digest — and the
// next sequence number reuses it as if it were new.
func TestReliableRowRecycled(t *testing.T) {
	x, y := Bytes("block"), Bytes("other")
	s := newStepper(t)
	a, b := Slot{Src: 1, Seq: 0}, Slot{Src: 2, Seq: 0}
	for from := types.ProcessID(1); from < 4; from++ {
		s.handle(from, echoMsg{&vote{Slot: a, Digest: y.Digest()}})
		s.handle(from, echoMsg{&vote{Slot: b, Digest: x.Digest()}})
	}
	s.expect("ECHO quorums for y in a and x in b, neither held",
		"fetchMsg→1", "fetchMsg→2", "fetchMsg→3", "fetchMsg→1", "fetchMsg→2", "fetchMsg→3")
	// a's SEND comes after its source's ECHO of y: it is also that
	// source's ECHO of x, which would have made the ECHO of y spam.
	s.handle(1, sendMsg{&send{Slot: a, Payload: x}})
	s.expect("SEND of x", "echoMsg→all")
	s.handle(2, payloadMsg{&send{Slot: a, Payload: y}})
	s.expect("the further digest y completes its fetch", "readyMsg→all")
	s.handle(3, fetchMsg{&vote{Slot: a, Digest: x.Digest()}})
	s.handle(3, fetchMsg{&vote{Slot: a, Digest: y.Digest()}})
	s.expect("both digests of a are served", "payloadMsg→3", "payloadMsg→3")
	for from := types.ProcessID(1); from < 4; from++ {
		s.handle(from, readyMsg{&vote{Slot: a, Digest: y.Digest()}})
	}
	if len(s.delivered) != 1 || s.delivered[0].Digest() != y.Digest() {
		t.Fatalf("delivered %v, want y once", s.delivered)
	}
	if got := s.r.SlotCount(); got != 2 {
		t.Fatalf("SlotCount = %d, want 2", got)
	}

	// Seq 0's row came from a fresh chunk whose other rows wait on the
	// free list; the pruned row joins them on top.
	s.r.PruneBelow(1)
	if got := s.r.SlotCount(); got != 0 || len(s.r.rows) != 0 || len(s.r.free) != dag.RowChunk {
		t.Fatalf("after PruneBelow(1): SlotCount %d, %d rows, %d free, want 0, 0, %d (1 pruned + %d chunk spares)",
			got, len(s.r.rows), len(s.r.free), dag.RowChunk, dag.RowChunk-1)
	}
	requireEmptyRows(t, s.r.free)
	requireEmptyPool(t, s.r)
	recycled := s.r.free[len(s.r.free)-1]

	// Seq 1 reuses the row. Slot b's inline digest had an ECHO quorum and a
	// running fetch; both start over.
	a, b = Slot{Src: 1, Seq: 1}, Slot{Src: 2, Seq: 1}
	s.handle(1, echoMsg{&vote{Slot: b, Digest: x.Digest()}})
	if &s.r.rows[1][0] != &recycled[0] || len(s.r.free) != dag.RowChunk-1 {
		t.Fatal("seq 1 did not reuse the recycled row, or cut a new chunk")
	}
	s.handle(2, echoMsg{&vote{Slot: b, Digest: x.Digest()}})
	s.expect("two ECHOs on a reset tracker")
	s.handle(3, echoMsg{&vote{Slot: b, Digest: x.Digest()}})
	s.expect("ECHO quorum, asked set cleared", "fetchMsg→1", "fetchMsg→2", "fetchMsg→3")
	s.handle(3, fetchMsg{&vote{Slot: b, Digest: x.Digest()}})
	s.expect("no payload survives recycling")
	// Slot a had sent ECHO and READY, delivered, and held a further digest.
	s.handle(1, readyMsg{&vote{Slot: a, Digest: x.Digest()}})
	if st := s.r.find(a); st.lookup(y.Digest()) != nil || st.others != nil {
		t.Fatal("the further digest survived recycling")
	}
	s.handle(1, sendMsg{&send{Slot: a, Payload: x}})
	s.expect("sent flags cleared: the SEND is echoed", "echoMsg→all")
	s.handle(2, readyMsg{&vote{Slot: a, Digest: x.Digest()}})
	s.handle(3, readyMsg{&vote{Slot: a, Digest: x.Digest()}})
	s.expect("READY kernel and quorum", "readyMsg→all")
	if len(s.delivered) != 2 || s.delivered[1].Digest() != x.Digest() {
		t.Fatalf("delivered %v, want y then x", s.delivered)
	}
	s.handle(3, fetchMsg{&vote{Slot: a, Digest: x.Digest()}})
	s.expect("served set cleared: 3 is served again", "payloadMsg→3")
	if got := s.r.SlotCount(); got != 2 {
		t.Fatalf("SlotCount = %d, want 2", got)
	}
}

// TestReliableDropsOutOfRangeSource: votes, fetches and replies for a slot
// whose source is not a process (Src = -1 or n) are dropped before they
// touch any state, whether or not a row for their seq exists.
func TestReliableDropsOutOfRangeSource(t *testing.T) {
	x := Bytes("x")
	s := newStepper(t)
	flood := func(seq uint64) {
		for _, src := range []types.ProcessID{-1, 4} {
			slot := Slot{Src: src, Seq: seq}
			for from := types.ProcessID(0); from < 4; from++ {
				s.handle(from, echoMsg{&vote{Slot: slot, Digest: x.Digest()}})
				s.handle(from, readyMsg{&vote{Slot: slot, Digest: x.Digest()}})
				s.handle(from, fetchMsg{&vote{Slot: slot, Digest: x.Digest()}})
				s.handle(from, payloadMsg{&send{Slot: slot, Payload: x}})
			}
		}
	}
	flood(0)
	flood(1)
	s.expect("out-of-range flood")
	if got := s.r.SlotCount(); got != 0 || len(s.r.rows) != 0 {
		t.Fatalf("out-of-range flood: SlotCount %d, %d rows, want 0 and 0", got, len(s.r.rows))
	}
	s.handle(1, sendMsg{&send{Slot: Slot{Src: 1, Seq: 0}, Payload: x}})
	s.expect("a real slot", "echoMsg→all")
	flood(0)
	s.expect("out-of-range flood beside a live row")
	if got := s.r.SlotCount(); got != 1 || len(s.r.rows) != 1 {
		t.Fatalf("out-of-range flood beside a live row: SlotCount %d, %d rows, want 1 and 1", got, len(s.r.rows))
	}
}

// digestPayload is a Payload that carries its digest, so handling it
// hashes and allocates nothing.
type digestPayload Digest

func (p digestPayload) Digest() Digest { return Digest(p) }

// TestReliableSteadyStateAllocs guards the slot layout: once the window of
// live rows is full and one prune has filled the free list, a full slot
// cycle — SEND, n ECHOs, n READYs, delivery, PruneBelow — allocates
// nothing for slot state, and the ECHO and READY it broadcasts cost one
// shared vote chunk per 32 cycles, which AllocsPerRun's integer mean
// rounds to 0.
// It runs on the Fig. 1 system at n = 30, the benchmark's sim_asym_n30
// trust.
func TestReliableSteadyStateAllocs(t *testing.T) {
	sys := quorum.Counterexample()
	n := sys.N()
	const src, window, cycles = 5, 4, 200
	delivered := 0
	r := NewReliable(0, sys, func(sim.Env, Slot, Payload) { delivered++ })
	var env sim.Env = pruneEnv{self: 0, n: n}
	// Each cycle's incoming messages, built before anything is measured.
	msgs := make([][]sim.Message, cycles)
	for seq := range msgs {
		slot := Slot{Src: src, Seq: uint64(seq)}
		d := Digest{byte(seq), byte(seq >> 8)}
		msgs[seq] = append(msgs[seq], sendMsg{&send{Slot: slot, Payload: digestPayload(d)}})
		for p := 0; p < n; p++ {
			msgs[seq] = append(msgs[seq], echoMsg{&vote{Slot: slot, Digest: d}})
		}
		for p := 0; p < n; p++ {
			msgs[seq] = append(msgs[seq], readyMsg{&vote{Slot: slot, Digest: d}})
		}
	}
	seq := 0
	cycle := func() {
		ms := msgs[seq]
		r.Handle(env, src, ms[0])
		for i, m := range ms[1:] {
			r.Handle(env, types.ProcessID(i%n), m)
		}
		seq++
		if seq > window {
			r.PruneBelow(uint64(seq - window))
		}
	}
	for seq < 2*window {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if delivered != seq || r.SlotCount() != window {
		t.Fatalf("%d cycles delivered %d slots and left %d live, want every one and %d", seq, delivered, r.SlotCount(), window)
	}
	if allocs != 0 {
		t.Fatalf("a slot cycle allocates %.2f objects, want 0 (its votes come from the shared chunk)", allocs)
	}
	t.Logf("%.2f allocations per slot cycle at n=%d", allocs, n)
}

// TestVoteBodiesSurvivePrune guards the rule that a vote body is never
// written after it is sent: every ECHO and READY a Reliable sent for the
// early sequence numbers still carries its own slot and digest after those
// rows were pruned and recycled and many vote chunks were cut after them,
// as a message still queued at a lagging receiver or in an outbox needs.
func TestVoteBodiesSurvivePrune(t *testing.T) {
	const n, early, later = 4, 3, 12
	var queue []queuedMsg
	env := queueEnv{pruneEnv: pruneEnv{self: 0, n: n}, queue: &queue}
	r := NewReliable(0, quorum.NewThreshold(n, 1), func(sim.Env, Slot, Payload) {})
	type sentVote struct {
		msg  sim.Message
		want vote
	}
	var kept []sentVote
	// run completes every slot of seq; the process sends an ECHO and a
	// READY to each of n per slot, but no ECHO in its own, whose SEND is
	// its ECHO: 2n(n − 1) + n = 28 votes per seq.
	run := func(seq uint64) {
		for src := types.ProcessID(0); src < n; src++ {
			slot := Slot{Src: src, Seq: seq}
			d := Digest{byte(seq), byte(src), 0xee}
			r.Handle(env, src, sendMsg{&send{Slot: slot, Payload: digestPayload(d)}})
			for from := types.ProcessID(0); from < n; from++ {
				r.Handle(env, from, echoMsg{&vote{Slot: slot, Digest: d}})
				r.Handle(env, from, readyMsg{&vote{Slot: slot, Digest: d}})
			}
			if seq < early {
				for _, m := range queue {
					kept = append(kept, sentVote{m.msg, vote{Slot: slot, Digest: d}})
				}
			}
			queue = queue[:0]
		}
	}
	for seq := uint64(0); seq < early; seq++ {
		run(seq)
	}
	if want := early * (2*n*(n-1) + n); len(kept) != want {
		t.Fatalf("captured %d sends for the early seqs, want %d (an ECHO and a READY to each of %d per slot, no ECHO in its own)", len(kept), want, n)
	}
	r.PruneBelow(early)
	spares := (dag.RowChunk - early%dag.RowChunk) % dag.RowChunk // unused rows of the last chunk
	if len(r.free) != early+spares {
		t.Fatalf("PruneBelow(%d) left %d rows to recycle, want %d pruned + %d chunk spares", early, len(r.free), early, spares)
	}
	requireEmptyRows(t, r.free)
	requireEmptyPool(t, r)
	// Each later seq reuses a recycled row and cuts 2n more vote bodies.
	for seq := uint64(early); seq < early+later; seq++ {
		run(seq)
		r.PruneBelow(seq + 1)
	}
	for _, k := range kept {
		var got vote
		switch m := k.msg.(type) {
		case echoMsg:
			got = *m.vote
		case readyMsg:
			got = *m.vote
		case echoRefMsg:
			got = *m.body
		case readyRefMsg:
			got = *m.body
		default:
			t.Fatalf("early slot sent %T, want only votes", k.msg)
		}
		if got != k.want {
			t.Fatalf("%T sent for %v now reads (%v, %x), want its original digest %x", k.msg, k.want.Slot, got.Slot, got.Digest[:3], k.want.Digest[:3])
		}
	}
}

// TestReadyReusesTriggerBody pins which bodies a Reliable reuses. A READY
// completed by an ECHO or READY carries that message's body, in both its
// forms, and a FETCH the body of the vote that blocked; a READY completed
// by a SEND or by a fetch reply carries a body of its own.
func TestReadyReusesTriggerBody(t *testing.T) {
	x := Bytes("x")
	d := x.Digest()
	s := newStepper(t)
	// echoes hands s an ECHO(slot, d) from each of 1, 2 and 3, each with a
	// body of its own, and returns the bodies: the third completes the
	// quorum.
	echoes := func(slot Slot) []*vote {
		var bodies []*vote
		for from := types.ProcessID(1); from < 4; from++ {
			bodies = append(bodies, &vote{Slot: slot, Digest: d})
			s.handle(from, echoMsg{bodies[len(bodies)-1]})
		}
		return bodies
	}
	// sent returns the bodies of the READYs, if ready is set, or else of
	// the FETCHes sent since the last call, and clears the record.
	sent := func(ready bool) []*vote {
		var bodies []*vote
		for _, m := range s.sent {
			switch m := m.msg.(type) {
			case readyMsg:
				if ready {
					bodies = append(bodies, m.vote)
				}
			case readyRefMsg:
				if ready {
					bodies = append(bodies, m.body)
				}
			case fetchMsg:
				if !ready {
					bodies = append(bodies, m.vote)
				}
			}
		}
		s.sent = s.sent[:0]
		return bodies
	}
	carry := func(what string, got []*vote, count int, ok func(*vote) bool) {
		t.Helper()
		if len(got) != count {
			t.Fatalf("%s: %d sent, want %d", what, len(got), count)
		}
		for _, b := range got {
			if !ok(b) {
				t.Fatalf("%s: carries the wrong body %p (%v, %x)", what, b, b.Slot, b.Digest[:3])
			}
		}
	}
	is := func(want *vote) func(*vote) bool { return func(b *vote) bool { return b == want } }
	fresh := func(slot Slot, old []*vote) func(*vote) bool {
		return func(b *vote) bool {
			return *b == (vote{Slot: slot, Digest: d}) && !slices.Contains(old, b)
		}
	}

	slot := Slot{Src: 1, Seq: 0}
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
	bodies := echoes(slot)
	carry("READY after an ECHO quorum", sent(true), 4, is(bodies[2]))

	slot = Slot{Src: 1, Seq: 1}
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
	s.handle(1, readyMsg{&vote{Slot: slot, Digest: d}})
	ready := &vote{Slot: slot, Digest: d}
	s.handle(2, readyMsg{ready})
	carry("READY after a READY kernel", sent(true), 4, is(ready))

	slot = Slot{Src: 1, Seq: 2}
	bodies = echoes(slot)
	carry("FETCH after an ECHO quorum without the payload", sent(false), 3, is(bodies[2]))
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
	carry("READY completed by the SEND", sent(true), 4, fresh(slot, bodies))

	slot = Slot{Src: 1, Seq: 3}
	bodies = echoes(slot)
	carry("FETCH after an ECHO quorum without the payload", sent(false), 3, is(bodies[2]))
	s.handle(2, payloadMsg{&send{Slot: slot, Payload: x}})
	carry("READY completed by the fetch reply", sent(true), 4, fresh(slot, bodies))
}

// TestReliableVoterSpamBounded: one Byzantine voter names a fresh digest
// in each of 1 000 ECHOs and 1 000 READYs on a live slot. The slot keeps
// at most one spilled digest per kind of vote from it, and the honest
// value still delivers.
func TestReliableVoterSpamBounded(t *testing.T) {
	s := newStepper(t)
	slot := Slot{Src: 1, Seq: 0}
	x := Bytes("x")
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
	for i := range 1000 {
		d := Digest{byte(i), byte(i >> 8), 0xbb}
		s.handle(3, echoMsg{&vote{Slot: slot, Digest: d}})
		s.handle(3, readyMsg{&vote{Slot: slot, Digest: d}})
	}
	if got := len(s.r.rows[slot.Seq][slot.Src].others); got > 2 {
		t.Fatalf("one voter's fresh digests left %d spilled values in the slot, want at most 2", got)
	}
	for from := types.ProcessID(0); from < 3; from++ {
		s.handle(from, echoMsg{&vote{Slot: slot, Digest: x.Digest()}})
	}
	for from := types.ProcessID(0); from < 3; from++ {
		s.handle(from, readyMsg{&vote{Slot: slot, Digest: x.Digest()}})
	}
	if len(s.delivered) != 1 || s.delivered[0].Digest() != x.Digest() {
		t.Fatalf("delivered %v, want the honest payload once", s.delivered)
	}
}

// TestReliableDropsUncountedVoters: on the Fig. 1 system a voter outside
// U_self, the union of the receiver's quorums, names a fresh digest in
// each of 100 ECHOs and 100 READYs on a live slot. No predicate of the
// receiver counts it, so the votes add no digest and allocate nothing.
// Voters inside U_self can still add one digest per kind each, so spam
// from everyone leaves the slot at its cap of 1 + 2|U_self| digests: 13.
// The source's SEND is its ECHO, so its ECHO of a fresh digest adds one
// only if it comes first.
func TestReliableDropsUncountedVoters(t *testing.T) {
	sys := quorum.Counterexample()
	n := sys.N()
	const self = 0
	var inside, outside []types.ProcessID
	for p := 0; p < n; p++ {
		if sys.Counts(self, types.ProcessID(p)) {
			inside = append(inside, types.ProcessID(p))
		} else {
			outside = append(outside, types.ProcessID(p))
		}
	}
	r := NewReliable(self, sys, func(sim.Env, Slot, Payload) { t.Fatal("delivered") })
	var env sim.Env = pruneEnv{self: self, n: n}
	slot := Slot{Src: 1, Seq: 0}
	fresh := func(i int) Digest { return Digest{byte(i), byte(i >> 8), 0xcc} }
	if !sys.Counts(self, slot.Src) {
		t.Fatalf("source %v lies outside U_%v", slot.Src, types.ProcessID(self))
	}
	r.Handle(env, slot.Src, echoMsg{&vote{Slot: slot, Digest: fresh(999)}})
	r.Handle(env, slot.Src, sendMsg{&send{Slot: slot, Payload: Bytes("x")}})
	votes := make([]sim.Message, 0, 200)
	for i := range 100 {
		votes = append(votes, echoMsg{&vote{Slot: slot, Digest: fresh(i)}}, readyMsg{&vote{Slot: slot, Digest: fresh(i)}})
	}
	voter := outside[0]
	allocs := testing.AllocsPerRun(10, func() {
		for _, m := range votes {
			r.Handle(env, voter, m)
		}
	})
	st := r.find(slot)
	if len(st.others) != 1 || allocs != 0 {
		t.Fatalf("votes from %v, outside U_%v = %v, added %d digests to the source's and allocated %.1f objects, want 0 and 0",
			voter, types.ProcessID(self), inside, len(st.others)-1, allocs)
	}
	for k, p := range append(inside, outside...) {
		for i := range 10 {
			r.Handle(env, p, echoMsg{&vote{Slot: slot, Digest: fresh(1000 + 20*k + i)}})
			r.Handle(env, p, readyMsg{&vote{Slot: slot, Digest: fresh(1010 + 20*k + i)}})
		}
	}
	if got, want := 1+len(st.others), 1+2*len(inside); got != want || want != 13 {
		t.Fatalf("spam from every voter left %d digests in the slot, want 1 + 2|U_self| = %d (13 on Fig. 1)", got, want)
	}
}

// TestReliableServesAfterDelivery pins what a slot keeps once it has
// delivered. It delivers a further, non-first digest x through a fetch and
// then still serves FETCH for x to each requester once (R2), echoes the
// first SEND that arrives late and serves its payload too; and the ECHOs,
// READYs and PAYLOADs that come after delivery, fresh digests from new
// voters included, send nothing, add no digest and borrow no tally.
func TestReliableServesAfterDelivery(t *testing.T) {
	slot := Slot{Src: 1, Seq: 7}
	x, y, z := Bytes("block"), Bytes("first"), Bytes("fresh")
	s := newStepper(t)
	s.handle(3, echoMsg{&vote{Slot: slot, Digest: y.Digest()}})
	s.expect("an ECHO for y opens the slot")
	s.handle(1, readyMsg{&vote{Slot: slot, Digest: x.Digest()}})
	s.handle(2, readyMsg{&vote{Slot: slot, Digest: x.Digest()}})
	s.expect("READY kernel for the further digest x", "fetchMsg→1", "fetchMsg→2")
	s.handle(1, payloadMsg{&send{Slot: slot, Payload: x}})
	s.expect("the reply supplies x", "readyMsg→all")
	s.handle(3, readyMsg{&vote{Slot: slot, Digest: x.Digest()}})
	s.expect("READY quorum for x")
	if len(s.delivered) != 1 || s.delivered[0].Digest() != x.Digest() {
		t.Fatalf("delivered %v, want x once", s.delivered)
	}
	st := s.r.find(slot)
	if st.first != y.Digest() || st.lookup(x.Digest()) == nil {
		t.Fatal("x is not a further digest of the slot")
	}
	if st.value.tally != nil || st.lookup(x.Digest()).tally != nil || len(s.r.pool) != s.r.cut {
		t.Fatalf("delivery kept tallies: %d of %d back on the pool", len(s.r.pool), s.r.cut)
	}

	s.handle(3, fetchMsg{&vote{Slot: slot, Digest: x.Digest()}})
	s.expect("FETCH of x after delivery", "payloadMsg→3")
	s.handle(3, fetchMsg{&vote{Slot: slot, Digest: x.Digest()}})
	s.expect("a second FETCH of x by the same requester")
	s.handle(1, sendMsg{&send{Slot: slot, Payload: y}})
	s.expect("the first SEND, late", "echoMsg→all")
	s.handle(1, sendMsg{&send{Slot: slot, Payload: z}})
	s.expect("a second SEND")
	s.handle(2, fetchMsg{&vote{Slot: slot, Digest: y.Digest()}})
	s.expect("FETCH of the late SEND's payload", "payloadMsg→2")

	others := len(st.others)
	for from := types.ProcessID(0); from < 4; from++ {
		for _, d := range []Digest{x.Digest(), y.Digest(), z.Digest()} {
			s.handle(from, echoMsg{&vote{Slot: slot, Digest: d}})
			s.handle(from, readyMsg{&vote{Slot: slot, Digest: d}})
		}
		s.handle(from, payloadMsg{&send{Slot: slot, Payload: z}})
		s.handle(from, payloadMsg{&send{Slot: slot, Payload: x}})
	}
	s.expect("ECHOs, READYs and PAYLOADs after delivery")
	if len(st.others) != others || st.lookup(z.Digest()) != nil {
		t.Fatalf("late votes added a digest: %d further digests, want %d", len(st.others), others)
	}
	if len(s.r.pool) != s.r.cut || len(s.delivered) != 1 {
		t.Fatalf("late votes borrowed %d tallies or delivered again (%d deliveries)", s.r.cut-len(s.r.pool), len(s.delivered))
	}
	if got := s.r.SlotCount(); got != 1 {
		t.Fatalf("SlotCount = %d, want 1", got)
	}
}

// slotOf returns the slot a broadcast message is about.
func slotOf(msg sim.Message) Slot {
	switch m := msg.(type) {
	case sendMsg:
		return m.Slot
	case payloadMsg:
		return m.Slot
	case echoMsg:
		return m.Slot
	case readyMsg:
		return m.Slot
	case echoRefMsg:
		return m.body.Slot
	case readyRefMsg:
		return m.body.Slot
	case fetchMsg:
		return m.Slot
	}
	panic(fmt.Sprintf("not a broadcast message: %T", msg))
}

// TestTrackerPoolBounded drives n Reliables, every one broadcasting in
// every sequence number, through 200 sequence numbers with PruneBelow
// trailing by a GC depth. Each step hands over every message queued
// before it, so a slot pends for about three steps; one process's copy of
// each SEND is held back two steps, so its votes overtake it and R2
// fetches. The tallies in use must always equal the live undelivered
// slots, the trackers cut must stay at or below twice their peak plus one
// chunk of 2n, and after warm-up no further chunk of trackers or fetch sets
// may be cut. Once every row is pruned, every tally and fetch set cut is
// back on its pool.
func TestTrackerPoolBounded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trust quorum.Assumption
	}{
		{"threshold n=4", quorum.NewThreshold(4, 1)},
		{"Fig. 1", quorum.Counterexample()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seqs, gcDepth, warmUp, hold = 200, 8, 50, 2
			n := tc.trust.N()
			var queue []queuedMsg
			held := map[int][]queuedMsg{} // SENDs held back, by the step that hands them over
			envs := make([]queueEnv, n)
			nodes := make([]*Reliable, n)
			delivered := make([]int, n)
			for i := range nodes {
				envs[i] = queueEnv{pruneEnv: pruneEnv{self: types.ProcessID(i), n: n}, queue: &queue}
				nodes[i] = NewReliable(types.ProcessID(i), tc.trust, func(sim.Env, Slot, Payload) { delivered[i]++ })
			}
			pending := func(p types.ProcessID, slot Slot) bool {
				st := nodes[p].find(slot)
				return st != nil && !st.delivered
			}
			undelivered, peak, cutAtWarmUp, fetchCutAtWarmUp := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
			for seq := 0; seq < seqs || len(queue) > 0 || len(held) > 0; seq++ {
				batch := append(queue, held[seq]...)
				queue = nil
				delete(held, seq)
				for _, m := range batch {
					slot := slotOf(m.msg)
					if _, ok := m.msg.(sendMsg); ok && int(slot.Seq) == seq-1 && int(m.to) == (int(slot.Src)+1+seq)%n {
						held[seq+hold] = append(held[seq+hold], m)
						continue
					}
					was := pending(m.to, slot)
					nodes[m.to].Handle(envs[m.to], m.from, m.msg)
					switch now := pending(m.to, slot); {
					case now && !was:
						undelivered[m.to]++
						peak[m.to] = max(peak[m.to], undelivered[m.to])
					case was && !now:
						undelivered[m.to]--
					}
				}
				for p, r := range nodes {
					if seq < seqs {
						// Broadcast opens the slot: it records the source's
						// own as echoed.
						own := Slot{Src: types.ProcessID(p), Seq: uint64(seq)}
						was := pending(own.Src, own)
						r.Broadcast(envs[p], own.Seq, digestPayload{byte(seq), byte(seq >> 8), byte(p)})
						if !was && pending(own.Src, own) {
							undelivered[p]++
							peak[p] = max(peak[p], undelivered[p])
						}
					}
					if w := seq - gcDepth; w > 0 {
						for src := range n {
							if pending(types.ProcessID(p), Slot{Src: types.ProcessID(src), Seq: uint64(w - 1)}) {
								undelivered[p]--
							}
						}
						r.PruneBelow(uint64(w))
					}
					if inUse := r.cut - len(r.pool); inUse != undelivered[p] {
						t.Fatalf("seq %d: process %d has %d tallies in use for %d undelivered slots", seq, p, inUse, undelivered[p])
					}
					if 2*r.cut > 2*peak[p]+2*n {
						t.Fatalf("seq %d: process %d cut %d trackers, more than 2 × %d undelivered slots at peak + %d", seq, p, 2*r.cut, peak[p], 2*n)
					}
					if seq == warmUp {
						cutAtWarmUp[p], fetchCutAtWarmUp[p] = r.cut, r.fetchCut
					}
				}
			}
			for p, r := range nodes {
				if delivered[p] != seqs*n {
					t.Fatalf("process %d delivered %d slots, want %d", p, delivered[p], seqs*n)
				}
				if r.cut != cutAtWarmUp[p] {
					t.Fatalf("process %d cut %d trackers by seq %d and %d by the end", p, 2*cutAtWarmUp[p], warmUp, 2*r.cut)
				}
				if r.fetchCut == 0 || r.fetchCut != fetchCutAtWarmUp[p] {
					t.Fatalf("process %d cut %d fetch sets by seq %d and %d by the end, want some and no more after warm-up",
						p, 2*fetchCutAtWarmUp[p], warmUp, 2*r.fetchCut)
				}
				r.PruneBelow(seqs)
				requireEmptyPool(t, r)
			}
			t.Logf("trackers cut per process: %d (peak %d undelivered slots, one chunk %d); fetch sets cut: %d",
				2*nodes[0].cut, peak[0], 2*n, 2*nodes[0].fetchCut)
		})
	}
}

// refs returns the votes by reference sent since the last take, as
// "<type>→<to>" strings, without clearing them.
func (s *stepper) refs() []string {
	var out []string
	for _, m := range s.sent {
		switch m.msg.(type) {
		case echoRefMsg, readyRefMsg:
			out = append(out, fmt.Sprintf("%T→%d", m.msg, m.to)[len("broadcast."):])
		}
	}
	return out
}

// expectRefs fails the test unless the votes by reference sent since the
// last take are want.
func (s *stepper) expectRefs(what string, want ...string) {
	s.t.Helper()
	if got := s.refs(); fmt.Sprint(got) != fmt.Sprint(want) {
		s.t.Fatalf("%s: sent by reference %v, want %v", what, got, want)
	}
}

// decoded returns msg as a TCP receiver gets it: decoded from its wire
// encoding.
func decoded(t *testing.T, msg sim.Message) sim.Message {
	t.Helper()
	enc, err := wire.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	dec, rest, err := wire.Decode(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("%T: decode: %v (%d bytes left)", msg, err, len(rest))
	}
	return dec
}

// TestReliableRefWithoutEchoChangesNothing: an ECHO by reference for a
// slot the receiver has not echoed in names no digest, so it changes no
// state: not for an unknown slot, where it opens none, not for a live slot
// whose SEND has not arrived, however many come, and not for a pruned one;
// nor does a READY by reference for a pruned slot. Nor does a vote by
// reference of either kind from a voter outside U_self, on Fig. 1, for a
// slot it echoed.
func TestReliableRefWithoutEchoChangesNothing(t *testing.T) {
	slot := Slot{Src: 1, Seq: 7}
	x := Bytes("block")
	d := x.Digest()
	s := newStepper(t)
	s.r.PruneBelow(5)
	for from := types.ProcessID(0); from < 4; from++ {
		s.handle(from, echoRefMsg{&vote{Slot: slot}})
		s.handle(from, echoRefMsg{&vote{Slot: Slot{Src: 1, Seq: 2}}})
		s.handle(from, readyRefMsg{&vote{Slot: Slot{Src: 1, Seq: 2}}})
	}
	if len(s.r.rows) != 0 || s.r.SlotCount() != 0 || s.r.Held() != 0 {
		t.Fatalf("votes by reference for an unknown or pruned slot opened %d rows, %d slots, held %d", len(s.r.rows), s.r.SlotCount(), s.r.Held())
	}
	s.handle(2, echoMsg{&vote{Slot: slot, Digest: d}})
	for from := types.ProcessID(0); from < 4; from++ {
		s.handle(from, echoRefMsg{&vote{Slot: slot, Digest: d}}) // a digest in the body is not read
	}
	s.expect("ECHOs by reference for a slot not echoed")
	st := s.r.find(slot)
	if e, r := st.value.tally.votes[echoes].Count(), st.value.tally.votes[readies].Count(); e != 1 || r != 0 || len(st.others) != 0 || st.sentEcho {
		t.Fatalf("ECHOs by reference changed the slot: %d ECHOs, %d READYs, %d further digests", e, r, len(st.others))
	}

	sys := quorum.Counterexample()
	outside := types.ProcessID(-1)
	for p := 0; p < sys.N(); p++ {
		if !sys.Counts(0, types.ProcessID(p)) {
			outside = types.ProcessID(p)
			break
		}
	}
	r := NewReliable(0, sys, func(sim.Env, Slot, Payload) { t.Fatal("delivered") })
	env := pruneEnv{self: 0, n: sys.N()}
	r.Handle(env, 1, sendMsg{&send{Slot: slot, Payload: x}})
	r.Handle(env, outside, echoRefMsg{&vote{Slot: slot}})
	r.Handle(env, outside, readyRefMsg{&vote{Slot: slot}})
	r.Handle(env, outside, readyRefMsg{&vote{Slot: Slot{Src: 2, Seq: 7}}})
	// The one ECHO counted is the source's: its SEND.
	if st := r.find(slot); st.value.tally.votes[echoes].Count() != 1 || st.value.tally.votes[readies].Count() != 0 || st.held != 0 || r.Held() != 0 {
		t.Fatalf("votes by reference from %v, outside U_p1, were counted or held", outside)
	}
	if row := r.rows[slot.Seq]; row[2].held != 0 {
		t.Fatalf("a READY by reference from %v, outside U_p1, was held", outside)
	}
}

// TestReliableRefAddsNoDigest: a vote by reference counts for a digest
// the slot holds — an ECHO by reference for the one the receiver echoed, a
// READY by reference for one its voter's ECHO was counted for — so it
// never adds one. On Fig. 1, with every voter in U_self at its one spilled
// digest per kind and the SEND's digest echoed, the slot holds its cap of
// 1 + 2|U_self| = 13 digests. Votes by reference of both kinds from every
// process leave it there: each voter's ECHO by reference counts for the
// echoed digest, the slot's first, so its READY by reference does too, and
// they deliver it.
func TestReliableRefAddsNoDigest(t *testing.T) {
	sys := quorum.Counterexample()
	const self = 0
	var inside []types.ProcessID
	for p := 0; p < sys.N(); p++ {
		if sys.Counts(self, types.ProcessID(p)) {
			inside = append(inside, types.ProcessID(p))
		}
	}
	var delivered []Payload
	r := NewReliable(self, sys, func(_ sim.Env, _ Slot, p Payload) { delivered = append(delivered, p) })
	env := pruneEnv{self: self, n: sys.N()}
	slot := Slot{Src: 1, Seq: 0}
	x := Bytes("x")
	for k, p := range inside {
		r.Handle(env, p, echoMsg{&vote{Slot: slot, Digest: Digest{byte(k), 0xe}}})
		r.Handle(env, p, readyMsg{&vote{Slot: slot, Digest: Digest{byte(k), 0xa}}})
	}
	r.Handle(env, 1, sendMsg{&send{Slot: slot, Payload: x}})
	st := r.find(slot)
	want := 1 + 2*len(inside)
	if got := 1 + len(st.others); got != want || want != 13 || st.first != x.Digest() {
		t.Fatalf("%d digests before the votes by reference, the echoed one first: %v; want 1 + 2|U_self| = 13", got, st.first == x.Digest())
	}
	for range 10 {
		for p := 0; p < sys.N(); p++ {
			r.Handle(env, types.ProcessID(p), echoRefMsg{&vote{Slot: slot}})
			r.Handle(env, types.ProcessID(p), readyRefMsg{&vote{Slot: slot}})
		}
	}
	if got := 1 + len(st.others); got != want {
		t.Fatalf("votes by reference left %d digests, want %d", got, want)
	}
	if len(delivered) != 1 || delivered[0].Digest() != x.Digest() || r.Held() != 0 {
		t.Fatalf("delivered %v and held %d READYs by reference, want the echoed payload once and none held", delivered, r.Held())
	}
}

// TestReliableRefNotToOtherDigest pins the two rules. An ECHO goes by
// reference to exactly the processes whose ECHO for its digest the voter
// counted: the source 1 equivocates, so process 2 echoed d1 while process
// 0 echoes d2. Process 0 counted 2's ECHO for d1, not for d2, so its ECHO
// of d2 goes to 2 in full; to 3, whose ECHO for d2 it counted, by
// reference, and to the source 1 too, whose SEND of d2 is its ECHO. With
// its own ECHO that is a quorum. A READY for the digest the voter echoed
// goes by reference to everyone else, 2 included: each of them resolves it
// by the voter's ECHO, which names d2.
func TestReliableRefNotToOtherDigest(t *testing.T) {
	slot := Slot{Src: 1, Seq: 7}
	x1, x2 := Bytes("one"), Bytes("two")
	s := newStepper(t)
	s.handle(2, echoMsg{&vote{Slot: slot, Digest: x1.Digest()}})
	s.handle(3, echoMsg{&vote{Slot: slot, Digest: x2.Digest()}})
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x2}})
	s.expectRefs("ECHO of d2", "echoRefMsg→1", "echoRefMsg→3")
	s.expect("ECHO of d2", "echoMsg→all")
	s.handle(0, echoMsg{&vote{Slot: slot, Digest: x2.Digest()}})
	s.expectRefs("READY of d2", "readyRefMsg→1", "readyRefMsg→2", "readyRefMsg→3")
	s.expect("READY of d2", "readyMsg→all")
}

// TestReliableRefTriggersCarryDigest runs on decoded copies, as TCP
// delivers them, where a vote by reference carries no digest. A READY that
// ECHOs by reference complete, and a READY kernel of READYs by reference
// (after their voters' ECHOs), carry the digest they resolve to, in both
// forms. A vote by reference names a digest whose payload the receiver
// holds, so it never blocks R1; a FETCH blocked on a decoded full vote
// carries that vote's digest.
func TestReliableRefTriggersCarryDigest(t *testing.T) {
	x := Bytes("x")
	d := x.Digest()
	s := newStepper(t)
	// readies checks the READYs sent since the last call: four, holding
	// (slot, d); a decoded reference's body holds no digest, so none of
	// them is one passed on.
	readies := func(what string, slot Slot) {
		t.Helper()
		n := 0
		for _, m := range s.sent {
			var b *vote
			switch m := m.msg.(type) {
			case readyMsg:
				b = m.vote
			case readyRefMsg:
				b = m.body
			case fetchMsg:
				t.Fatalf("%s: sent a FETCH", what)
			default:
				continue
			}
			n++
			if *b != (vote{Slot: slot, Digest: d}) {
				t.Fatalf("%s: READY carries (%v, %x), want (%v, %x)", what, b.Slot, b.Digest[:3], slot, d[:3])
			}
		}
		if n != 4 {
			t.Fatalf("%s: %d READYs sent, want 4", what, n)
		}
		s.sent = s.sent[:0]
	}
	slot := Slot{Src: 1, Seq: 0}
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
	s.take()
	for from := types.ProcessID(1); from < 4; from++ {
		s.handle(from, decoded(t, echoRefMsg{&vote{Slot: slot, Digest: d}}))
	}
	readies("READY after an ECHO quorum by reference", slot)

	slot = Slot{Src: 1, Seq: 1}
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
	s.take()
	for from := types.ProcessID(2); from < 4; from++ {
		s.handle(from, decoded(t, echoRefMsg{&vote{Slot: slot, Digest: d}}))
		s.handle(from, decoded(t, readyRefMsg{&vote{Slot: slot, Digest: d}}))
	}
	readies("READY after a READY kernel by reference", slot)

	slot = Slot{Src: 1, Seq: 2}
	for from := types.ProcessID(1); from < 4; from++ {
		s.handle(from, decoded(t, echoMsg{&vote{Slot: slot, Digest: d}}))
	}
	for _, m := range s.sent {
		f, ok := m.msg.(fetchMsg)
		if !ok || *f.vote != (vote{Slot: slot, Digest: d}) {
			t.Fatalf("ECHO quorum without the payload sent %T %v, want FETCHes of (%v, %x)", m.msg, m.msg, slot, d[:3])
		}
	}
	s.expect("ECHO quorum without the payload", "fetchMsg→1", "fetchMsg→2", "fetchMsg→3")
}

// TestReliableNoRefToSelfOrDelivered: a vote to the voter itself is full
// even when it counted its own ECHO; a READY for a digest the voter did
// not echo, whose payload came by fetch, goes in full; and a slot that has
// delivered votes only in full: a late SEND's ECHO goes in full to all,
// also to the processes whose ECHOs the slot counted before it delivered.
func TestReliableNoRefToSelfOrDelivered(t *testing.T) {
	slot := Slot{Src: 1, Seq: 7}
	x := Bytes("block")
	d := x.Digest()
	s := newStepper(t)
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
	s.take()
	s.handle(0, echoMsg{&vote{Slot: slot, Digest: d}})
	s.handle(1, echoMsg{&vote{Slot: slot, Digest: d}})
	s.handle(2, echoMsg{&vote{Slot: slot, Digest: d}})
	s.expectRefs("READY after ECHOs of 0, 1 and 2", "readyRefMsg→1", "readyRefMsg→2", "readyRefMsg→3")
	s.expect("READY", "readyMsg→all")

	slot = Slot{Src: 1, Seq: 8}
	s.handle(2, echoMsg{&vote{Slot: slot, Digest: d}})
	s.handle(3, echoMsg{&vote{Slot: slot, Digest: d}})
	for from := types.ProcessID(1); from < 4; from++ {
		s.handle(from, readyMsg{&vote{Slot: slot, Digest: d}})
	}
	s.expect("READY kernel and quorum without the payload", "fetchMsg→2", "fetchMsg→3", "fetchMsg→1")
	s.handle(2, payloadMsg{&send{Slot: slot, Payload: x}})
	s.expectRefs("the reply")
	s.expect("the reply", "readyMsg→all")
	if len(s.delivered) != 1 {
		t.Fatal("slot 8 did not deliver")
	}
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
	s.expectRefs("a late SEND")
	s.expect("a late SEND", "echoMsg→all")
}

// TestReliableReadyRefHeldUntilEcho: a READY by reference names the
// digest its voter echoed, so one that overtakes that ECHO is held and
// counted when the ECHO is, for the ECHO's digest: after a full ECHO, after
// an ECHO by reference, and on a slot that had no state when the READY
// came, whose first ECHO then names a digest this process never echoed.
func TestReliableReadyRefHeldUntilEcho(t *testing.T) {
	x, y := Bytes("x"), Bytes("y")
	s := newStepper(t)
	slot := Slot{Src: 1, Seq: 0}
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
	s.take()
	st := s.r.find(slot)
	counted := func(p types.ProcessID) bool { return st.value.tally.votes[readies].Contains(p) }

	s.handle(2, readyRefMsg{&vote{Slot: slot}})
	if counted(2) || !holds(s.r, st, 2) || s.r.Held() != 1 {
		t.Fatalf("a READY by reference before its voter's ECHO: counted %v, held %v, Held() %d; want held, not counted", counted(2), holds(s.r, st, 2), s.r.Held())
	}
	s.handle(2, echoMsg{&vote{Slot: slot, Digest: x.Digest()}})
	if !counted(2) || holds(s.r, st, 2) {
		t.Fatalf("the full ECHO came: READY counted %v, still held %v; want counted, not held", counted(2), holds(s.r, st, 2))
	}

	s.handle(3, readyRefMsg{&vote{Slot: slot}})
	s.handle(3, readyRefMsg{&vote{Slot: slot}}) // a duplicate holds nothing more
	if counted(3) || !holds(s.r, st, 3) || s.r.Held() != 2 {
		t.Fatalf("a READY by reference before its voter's ECHO by reference: counted %v, held %v, Held() %d", counted(3), holds(s.r, st, 3), s.r.Held())
	}
	s.handle(3, echoRefMsg{&vote{Slot: slot}})
	if !counted(3) || holds(s.r, st, 3) {
		t.Fatalf("the ECHO by reference came: READY counted %v, still held %v; want counted, not held", counted(3), holds(s.r, st, 3))
	}
	s.expect("a READY kernel of held READYs", "readyMsg→all")

	slot = Slot{Src: 2, Seq: 0}
	s.handle(1, readyRefMsg{&vote{Slot: slot}})
	if s.r.find(slot) != nil || s.r.SlotCount() != 1 {
		t.Fatal("a READY by reference for a slot with no state made it live")
	}
	s.handle(1, echoMsg{&vote{Slot: slot, Digest: y.Digest()}})
	st = s.r.find(slot)
	if v := st.lookup(y.Digest()); v == nil || !v.tally.votes[readies].Contains(1) || holds(s.r, st, 1) {
		t.Fatalf("the ECHO of y came first to a slot with a held READY: the READY was not counted for y")
	}
}

// TestReliableReadyRefCountsForVotersEcho: the source equivocates, so
// process 2 echoed d1 while this process echoed d2. 2's READY by reference
// names d1, the digest of the ECHO this process counted from it, whether
// that ECHO came before the READY or after it.
func TestReliableReadyRefCountsForVotersEcho(t *testing.T) {
	x1, x2 := Bytes("one"), Bytes("two")
	for _, echoFirst := range []bool{true, false} {
		s := newStepper(t)
		slot := Slot{Src: 1, Seq: 7}
		s.handle(1, sendMsg{&send{Slot: slot, Payload: x2}})
		if echoFirst {
			s.handle(2, echoMsg{&vote{Slot: slot, Digest: x1.Digest()}})
			s.handle(2, readyRefMsg{&vote{Slot: slot}})
		} else {
			s.handle(2, readyRefMsg{&vote{Slot: slot}})
			s.handle(2, echoMsg{&vote{Slot: slot, Digest: x1.Digest()}})
		}
		st := s.r.find(slot)
		if v := st.lookup(x1.Digest()); v == nil || !v.tally.votes[readies].Contains(2) || st.value.tally.votes[readies].Contains(2) {
			t.Fatalf("ECHO first %v: 2's READY by reference did not count for d1, the digest 2 echoed, alone", echoFirst)
		}
	}
}

// TestReliableHeldReadyDropped: a held READY by reference whose ECHO never
// comes is never counted, and its bit goes back to the pool when the slot
// delivers without it and when PruneBelow empties a slot that still holds
// it, live or not.
func TestReliableHeldReadyDropped(t *testing.T) {
	x := Bytes("x")
	d := x.Digest()
	s := newStepper(t)
	slot := Slot{Src: 1, Seq: 0}
	s.handle(1, sendMsg{&send{Slot: slot, Payload: x}})
	s.handle(3, readyRefMsg{&vote{Slot: slot}})
	st := s.r.find(slot)
	for from := types.ProcessID(0); from < 3; from++ {
		s.handle(from, echoMsg{&vote{Slot: slot, Digest: d}})
		if st.value.tally.votes[readies].Contains(3) {
			t.Fatalf("the ECHO of %v counted 3's held READY", from)
		}
	}
	for from := types.ProcessID(0); from < 3; from++ {
		s.handle(from, readyMsg{&vote{Slot: slot, Digest: d}})
	}
	if len(s.delivered) != 1 || st.held != 0 || len(s.r.heldFree) != heldCut(s.r) {
		t.Fatalf("delivered %d, held set %d, %d of %d held sets free; want delivery and the held set back", len(s.delivered), st.held, len(s.r.heldFree), heldCut(s.r))
	}
	s.handle(3, echoMsg{&vote{Slot: slot, Digest: d}}) // after delivery: dropped

	live, bare := Slot{Src: 1, Seq: 1}, Slot{Src: 2, Seq: 1}
	s.handle(1, sendMsg{&send{Slot: live, Payload: x}})
	s.handle(3, readyRefMsg{&vote{Slot: live}})
	s.handle(3, readyRefMsg{&vote{Slot: bare}})
	if s.r.Held() != 3 || len(s.r.heldFree) != heldCut(s.r)-2 {
		t.Fatalf("Held() %d, %d of %d held sets free; want 3 held, two sets out", s.r.Held(), len(s.r.heldFree), heldCut(s.r))
	}
	s.r.PruneBelow(2)
	requireEmptyPool(t, s.r)
	requireEmptyRows(t, s.r.free)
	if len(s.r.rows) != 0 || s.r.SlotCount() != 0 {
		t.Fatalf("PruneBelow left %d rows, %d live slots", len(s.r.rows), s.r.SlotCount())
	}
}

// votePair returns processes j and src, j ≠ src, with src in U_j, and with
// j in U_src as well when mutual is set; ok is false if trust has none.
func votePair(trust quorum.Assumption, counted, mutual bool) (j, src types.ProcessID, ok bool) {
	n := trust.N()
	for j := range types.ProcessID(n) {
		for src := range types.ProcessID(n) {
			if j != src && trust.Counts(j, src) == counted && (!mutual || trust.Counts(src, j)) {
				return j, src, true
			}
		}
	}
	return 0, 0, false
}

// audience returns the number of processes whose quorums contain p, p
// itself included if it is one of them.
func audience(trust quorum.Assumption, p types.ProcessID) int {
	k := 0
	for i := range types.ProcessID(trust.N()) {
		if trust.Counts(i, p) {
			k++
		}
	}
	return k
}

// TestReliableSendCountsAsSourceEcho: a SEND from a source in U_self is
// that source's ECHO of the SEND's digest. The receiver counts it once,
// however often the SEND or the source's own full ECHO of the digest
// comes, and counts it before it echoes, so its ECHO goes to the source by
// reference and to the rest of its audience in full.
func TestReliableSendCountsAsSourceEcho(t *testing.T) {
	for _, trust := range []quorum.Assumption{quorum.NewThreshold(4, 1), quorum.Counterexample()} {
		j, src, ok := votePair(trust, true, true)
		if !ok {
			t.Fatalf("n=%d: no process counts a source that counts it", trust.N())
		}
		var sent []queuedMsg
		env := queueEnv{pruneEnv: pruneEnv{self: j, n: trust.N()}, queue: &sent}
		r := NewReliable(j, trust, func(sim.Env, Slot, Payload) { t.Fatal("delivered") })
		slot := Slot{Src: src, Seq: 3}
		x := Bytes("x")
		r.Handle(env, src, sendMsg{&send{Slot: slot, Payload: x}})
		st := r.find(slot)
		tr := &st.value.tally.votes[echoes]
		if !tr.Contains(src) || tr.Count() != 1 || st.value.payload == nil {
			t.Fatalf("n=%d: %v's SEND at %v: %d ECHOs counted, the source's %v, payload held %v; want the source's alone, and the payload",
				trust.N(), src, j, tr.Count(), tr.Contains(src), st.value.payload != nil)
		}
		if len(sent) != audience(trust, j) {
			t.Fatalf("n=%d: %v sent %d ECHOs, want one to each of its audience of %d", trust.N(), j, len(sent), audience(trust, j))
		}
		for _, m := range sent {
			_, ref := m.msg.(echoRefMsg)
			_, full := m.msg.(echoMsg)
			if ref != (m.to == src) || full == ref {
				t.Fatalf("n=%d: %v sent %T to %v; want ECHO* to the source %v and full ECHOs to the rest", trust.N(), j, m.msg, m.to, src)
			}
		}
		sent = sent[:0]
		r.Handle(env, src, sendMsg{&send{Slot: slot, Payload: x}})
		r.Handle(env, src, echoMsg{&vote{Slot: slot, Digest: x.Digest()}})
		if tr.Count() != 1 || len(sent) != 0 {
			t.Fatalf("n=%d: the SEND again and the source's full ECHO: %d ECHOs counted and %d messages sent, want 1 and none", trust.N(), tr.Count(), len(sent))
		}
	}
}

// TestReliableSendFromOutsideNotCounted: on Fig. 1 a SEND from a source
// outside U_self is echoed, in full since nothing is counted yet, and its
// payload held, but it counts as no ECHO: no predicate of the receiver
// would count that source's vote.
func TestReliableSendFromOutsideNotCounted(t *testing.T) {
	trust := quorum.Counterexample()
	j, src, ok := votePair(trust, false, false)
	if !ok {
		t.Fatal("Fig. 1: every process counts every source")
	}
	var sent []queuedMsg
	env := queueEnv{pruneEnv: pruneEnv{self: j, n: trust.N()}, queue: &sent}
	r := NewReliable(j, trust, func(sim.Env, Slot, Payload) { t.Fatal("delivered") })
	slot := Slot{Src: src, Seq: 0}
	r.Handle(env, src, sendMsg{&send{Slot: slot, Payload: Bytes("x")}})
	st := r.find(slot)
	if e := st.value.tally.votes[echoes].Count(); e != 0 || !st.sentEcho || st.value.payload == nil {
		t.Fatalf("%v's SEND at %v, outside U_%v: %d ECHOs counted, echoed %v, payload held %v; want none counted, echoed, held",
			src, j, j, e, st.sentEcho, st.value.payload != nil)
	}
	if len(sent) != audience(trust, j) {
		t.Fatalf("%v sent %d messages, want an ECHO to each of its audience of %d", j, len(sent), audience(trust, j))
	}
	for _, m := range sent {
		if _, ok := m.msg.(echoMsg); !ok {
			t.Fatalf("%v sent %T to %v, want only full ECHOs", j, m.msg, m.to)
		}
	}
}

// TestReliableSourceCastsNoEcho: Broadcast records the source's own slot
// as echoed, its payload held and its digest first, and sends the SEND
// alone: the source never echoes its own slot, and runs no rule before
// the SEND leaves. An ECHO by reference that reaches it before its own
// SEND comes back is counted for that digest; the SEND then counts the
// source's own ECHO if it lies in its own quorums (on Fig. 1 the source
// chosen does not), and still sends nothing. Under threshold trust the
// slot then delivers: a READY by reference counts at the source for its
// SEND's digest, which is what a correct voter echoed, before the voter's
// ECHO does.
func TestReliableSourceCastsNoEcho(t *testing.T) {
	for _, trust := range []quorum.Assumption{quorum.NewThreshold(4, 1), quorum.Counterexample()} {
		n := trust.N()
		src := types.ProcessID(0)
		if _, ok := trust.(*quorum.System); ok {
			for trust.Counts(src, src) {
				src++
			}
		}
		voter := types.ProcessID(-1)
		for p := range types.ProcessID(n) {
			if p != src && trust.Counts(src, p) {
				voter = p
				break
			}
		}
		var sent []queuedMsg
		env := queueEnv{pruneEnv: pruneEnv{self: src, n: n}, queue: &sent}
		var delivered []Payload
		r := NewReliable(src, trust, func(_ sim.Env, _ Slot, p Payload) { delivered = append(delivered, p) })
		slot := Slot{Src: src, Seq: 0}
		x := Bytes("x")
		r.Broadcast(env, slot.Seq, x)
		st := r.find(slot)
		if st == nil || !st.sentEcho || st.first != x.Digest() || st.value.payload == nil || len(delivered) != 0 {
			t.Fatalf("n=%d: Broadcast did not record the slot as echoed with its payload, or delivered", n)
		}
		for _, m := range sent {
			if _, ok := m.msg.(sendMsg); !ok {
				t.Fatalf("n=%d: Broadcast sent %T to %v, want SENDs alone", n, m.msg, m.to)
			}
		}
		if len(sent) != n {
			t.Fatalf("n=%d: Broadcast sent %d SENDs, want %d", n, len(sent), n)
		}
		self := sent[src].msg
		sent = sent[:0]
		tr := &st.value.tally.votes[echoes]
		r.Handle(env, voter, echoRefMsg{&vote{Slot: slot}})
		if !tr.Contains(voter) || tr.Count() != 1 {
			t.Fatalf("n=%d: an ECHO by reference before the source's own SEND: counted %v, %d ECHOs; want counted alone", n, tr.Contains(voter), tr.Count())
		}
		r.Handle(env, src, self)
		if tr.Contains(src) != trust.Counts(src, src) || len(sent) != 0 {
			t.Fatalf("n=%d: the source's own SEND: its ECHO counted %v, in U_self %v; %d messages sent, want none",
				n, tr.Contains(src), trust.Counts(src, src), len(sent))
		}
	}

	s := newStepper(t)
	slot, x := Slot{Src: 0, Seq: 4}, Bytes("own")
	s.r.Broadcast(s.env, slot.Seq, x)
	s.expect("Broadcast", "sendMsg→all")
	s.handle(3, readyRefMsg{&vote{Slot: slot}})
	if !s.r.find(slot).value.tally.votes[readies].Contains(3) || s.r.Held() != 0 {
		t.Fatal("a READY by reference at its source, before its voter's ECHO, was held")
	}
	s.handle(1, echoRefMsg{&vote{Slot: slot}})
	s.handle(0, sendMsg{&send{Slot: slot, Payload: x}})
	s.expect("its own SEND")
	s.handle(2, echoRefMsg{&vote{Slot: slot}})
	s.expectRefs("ECHO quorum", "readyRefMsg→1", "readyRefMsg→2", "readyRefMsg→3")
	s.expect("ECHO quorum", "readyMsg→all")
	s.handle(0, readyMsg{&vote{Slot: slot, Digest: x.Digest()}})
	s.handle(1, readyRefMsg{&vote{Slot: slot}})
	if len(s.delivered) != 1 || s.delivered[0].Digest() != x.Digest() {
		t.Fatalf("delivered %v, want the source's payload once", s.delivered)
	}
}

// TestReliableUnrecordedSendAtSource: at its source, a SEND that no
// Broadcast recorded (one that EquivocateSend made, as partial senders do)
// is handled as at any receiver, except that the source casts no ECHO: it
// takes the payload, counts its own ECHO and the READYs by reference held
// before it, and the slot delivers. An ECHO by reference that came before
// it named no digest and was dropped; the voter's next one counts.
func TestReliableUnrecordedSendAtSource(t *testing.T) {
	s := newStepper(t)
	slot, x := Slot{Src: 0, Seq: 5}, Bytes("unrecorded")
	s.handle(1, readyRefMsg{&vote{Slot: slot}})
	s.handle(2, echoRefMsg{&vote{Slot: slot}})
	if s.r.Held() != 1 || s.r.SlotCount() != 0 {
		t.Fatalf("before the SEND: %d READYs held, %d slots live; want 1 and 0", s.r.Held(), s.r.SlotCount())
	}
	s.handle(0, sendMsg{&send{Slot: slot, Payload: x}})
	s.expect("the unrecorded SEND")
	st := s.r.find(slot)
	if v := &st.value; v.payload == nil || !v.tally.votes[echoes].Contains(0) || v.tally.votes[echoes].Count() != 1 ||
		!v.tally.votes[readies].Contains(1) || s.r.Waiting() != 0 {
		t.Fatal("the unrecorded SEND did not hold its payload, count the source's ECHO alone and the held READY")
	}
	s.handle(3, echoMsg{&vote{Slot: slot, Digest: x.Digest()}})
	s.handle(2, echoRefMsg{&vote{Slot: slot}})
	s.expect("ECHO quorum", "readyMsg→all")
	s.handle(2, readyRefMsg{&vote{Slot: slot}})
	s.handle(0, readyMsg{&vote{Slot: slot, Digest: x.Digest()}})
	if len(s.delivered) != 1 || s.delivered[0].Digest() != x.Digest() {
		t.Fatalf("delivered %v, want the unrecorded SEND's payload once", s.delivered)
	}
}

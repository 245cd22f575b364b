package transport

import (
	"fmt"
	"go/build"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/gather"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/sim"
	"repro/internal/types"
)

func TestConsensusOverTCP(t *testing.T) {
	n := 4
	trust := quorum.NewThreshold(n, 1)
	cn := coin.NewPRF(7, n)
	nodes := make([]sim.Node, n)
	raw := make([]*core.Node, n)
	for i := range nodes {
		nd := core.NewNode(core.Config{
			Trust:    trust,
			Coin:     cn,
			Workload: rider.SyntheticWorkload{Self: types.ProcessID(i), TxPerBlock: 2},
			MaxRound: 16, // 4 waves
		})
		nodes[i] = nd
		raw[i] = nd
	}
	cluster, err := NewLocalCluster(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()

	// Wait until every node finished its rounds and committed something.
	// A message without a codec is dropped by its writer, which can stall
	// the protocol, so fail on the first one rather than at the deadline.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if e := cluster.Stats().EncodeErrors; e > 0 {
			t.Fatalf("%d messages could not be encoded", e)
		}
		done := 0
		for i, h := range cluster.Hosts {
			var round, decided int
			h.Inspect(func() {
				round = raw[i].Round()
				decided = raw[i].DecidedWave()
			})
			if round >= 16 && decided > 0 {
				done++
			}
		}
		if done == n {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	// state tells a stall below round 16 from waves that reached it but
	// missed the commit rule, and shows what the writers lost.
	state := func() string {
		var b strings.Builder
		for i, h := range cluster.Hosts {
			var round, decided, commits int
			h.Inspect(func() {
				round, decided, commits = raw[i].Round(), raw[i].DecidedWave(), len(raw[i].Commits())
			})
			fmt.Fprintf(&b, "\n  node %d: round %d, decided wave %d, %d commits", i, round, decided, commits)
		}
		st := cluster.Stats()
		fmt.Fprintf(&b, "\n  encode errors %d, write errors %d, requeued %d", st.EncodeErrors, st.WriteErrors, st.Requeued)
		return b.String()
	}

	// Verify outcomes under Inspect.
	var orders [][]string
	for i, h := range cluster.Hosts {
		var blocks []string
		var decided int
		h.Inspect(func() {
			blocks = raw[i].DeliveredBlocks()
			decided = raw[i].DecidedWave()
		})
		if decided == 0 {
			t.Fatalf("node %d decided nothing over TCP:%s", i, state())
		}
		if len(blocks) == 0 {
			t.Fatalf("node %d delivered nothing over TCP:%s", i, state())
		}
		orders = append(orders, blocks)
	}
	// Prefix compatibility (total order).
	longest := 0
	for i := range orders {
		if len(orders[i]) > len(orders[longest]) {
			longest = i
		}
	}
	for i := range orders {
		for k, tx := range orders[i] {
			if orders[longest][k] != tx {
				t.Fatalf("total order violated over TCP: node %d pos %d", i, k)
			}
		}
	}
	// Once the rounds are done and traffic drains, every byte a writer
	// counted as sent, frame headers included, a reader counted as received.
	deadline = time.Now().Add(10 * time.Second)
	for s := cluster.Stats(); s.BytesSent != s.BytesReceived || s.BytesSent == 0; s = cluster.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("after the drain: %d bytes sent, %d received", s.BytesSent, s.BytesReceived)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestGatherOverTCP(t *testing.T) {
	n := 4
	trust := quorum.NewThreshold(n, 1)
	nodes := make([]sim.Node, n)
	raw := make([]*gather.ConstantRoundNode, n)
	for i := range nodes {
		nd := gather.NewConstantRoundNode(gather.Config{
			Trust: trust,
			Input: gather.InputValue(types.ProcessID(i)),
			Mode:  gather.UseReliable,
		})
		nodes[i] = nd
		raw[i] = nd
	}
	cluster, err := NewLocalCluster(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for i, h := range cluster.Hosts {
			var ok bool
			h.Inspect(func() { _, ok = raw[i].Delivered() })
			if ok {
				done++
			}
		}
		if done == n {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, h := range cluster.Hosts {
		var out gather.Pairs
		var ok bool
		h.Inspect(func() { out, ok = raw[i].Delivered() })
		if !ok {
			t.Fatalf("node %d never ag-delivered over TCP", i)
		}
		for src, val := range out.Map() {
			if want := gather.InputValue(src); val != want {
				t.Fatalf("node %d: wrong value for %v: %q", i, src, val)
			}
		}
	}
}

// rbNode runs reliable broadcast alone: it broadcasts one payload in each
// of slots sequence numbers, and counts what it delivers and the votes by
// reference it receives from other processes, READYs apart; the ECHOs, in
// either form, it receives for its own slots; and the ECHOs and READYs, in
// either form, it receives from a slot's own source.
type rbNode struct {
	trust       quorum.Assumption
	slots       int
	arb         *broadcast.Reliable
	delivered   map[broadcast.Slot]string
	refs, ready int
	toSource    int
	fromSource  int
}

// voteSlot returns the slot of an ECHO or a READY, in full or by
// reference, whether it is an ECHO, and whether msg is a vote at all. The
// types are unexported, so it reads the slot by reflection: each holds a
// pointer to a body with a Slot field.
func voteSlot(msg sim.Message) (s broadcast.Slot, echo, ok bool) {
	switch fmt.Sprintf("%T", msg) {
	case "broadcast.echoMsg", "broadcast.echoRefMsg":
		echo = true
	case "broadcast.readyMsg", "broadcast.readyRefMsg":
	default:
		return s, false, false
	}
	v := reflect.ValueOf(msg).Field(0).Elem().FieldByName("Slot")
	return broadcast.Slot{Src: types.ProcessID(v.Field(0).Int()), Seq: v.Field(1).Uint()}, echo, true
}

func (b *rbNode) Init(env sim.Env) {
	b.delivered = map[broadcast.Slot]string{}
	b.arb = broadcast.NewReliable(env.Self(), b.trust, func(_ sim.Env, s broadcast.Slot, p broadcast.Payload) {
		b.delivered[s] = string(p.(broadcast.Bytes))
	})
	for seq := 0; seq < b.slots; seq++ {
		b.arb.Broadcast(env, uint64(seq), broadcast.Bytes(fmt.Sprintf("p%d/%d", env.Self(), seq)))
	}
}

func (b *rbNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if typ := fmt.Sprintf("%T", msg); from != env.Self() && strings.HasSuffix(typ, "RefMsg") {
		b.refs++
		if typ == "broadcast.readyRefMsg" {
			b.ready++
		}
	}
	if s, echo, ok := voteSlot(msg); ok && s.Src == from {
		b.fromSource++
	} else if ok && echo && s.Src == env.Self() {
		b.toSource++
	}
	b.arb.Handle(env, from, msg)
}

// TestVotesByReferenceOverTCP: over loopback TCP, where every message
// arrives decoded from its encoding, votes go by reference — a vote by
// reference carries no digest on the wire — and every host still
// delivers every slot, with the payload its source broadcast, with no
// encode error. A READY by reference names the digest its voter echoed,
// and TCP links are FIFO, so its voter's ECHO always arrives first: no
// host ever holds one. A source resolves a READY by reference through its
// own SEND, which it recorded in Broadcast. The SEND is its source's ECHO
// and READY, so no host echoes or readies a slot it sources, in either
// form, and no ECHO in either form reaches a slot's source.
func TestVotesByReferenceOverTCP(t *testing.T) {
	const n, slots = 4, 30
	trust := quorum.NewThreshold(n, 1)
	nodes := make([]sim.Node, n)
	raw := make([]*rbNode, n)
	for i := range nodes {
		raw[i] = &rbNode{trust: trust, slots: slots}
		nodes[i] = raw[i]
	}
	cluster, err := NewLocalCluster(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()

	delivered := func(i int) (k int) {
		cluster.Hosts[i].Inspect(func() { k = len(raw[i].delivered) })
		return k
	}
	deadline := time.Now().Add(15 * time.Second)
	for done := 0; done < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d hosts delivered all %d slots before the deadline", done, n, n*slots)
		}
		time.Sleep(10 * time.Millisecond)
		done = 0
		for i := range raw {
			if delivered(i) == n*slots {
				done++
			}
		}
	}
	refs, ready, held, toSource, fromSource := 0, 0, 0, 0, 0
	for i, h := range cluster.Hosts {
		h.Inspect(func() {
			refs, ready, held = refs+raw[i].refs, ready+raw[i].ready, held+raw[i].arb.Held()
			toSource, fromSource = toSource+raw[i].toSource, fromSource+raw[i].fromSource
			for s, p := range raw[i].delivered {
				if want := fmt.Sprintf("p%d/%d", s.Src, s.Seq); p != want {
					t.Errorf("host %d delivered %q in %v, want %q", i, p, s, want)
				}
			}
		})
	}
	if refs == 0 || ready == 0 {
		t.Fatalf("%d votes crossed TCP by reference, %d of them READYs; want some of each", refs, ready)
	}
	if held != 0 {
		t.Fatalf("hosts held %d READYs by reference over FIFO links, want 0", held)
	}
	if fromSource != 0 || toSource != 0 {
		t.Fatalf("sources echoed or readied their own slots %d times, and %d ECHOs reached a slot's source; want none and none", fromSource, toSource)
	}
	if e := cluster.Stats().EncodeErrors; e != 0 {
		t.Fatalf("%d messages could not be encoded", e)
	}
	t.Logf("%d votes crossed TCP by reference, %d of them READYs; none held", refs, ready)
}

func TestHostCloseIdempotentAndClean(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	nodes := make([]sim.Node, 4)
	for i := range nodes {
		nodes[i] = gather.NewThreeRoundNode(gather.Config{
			Trust: trust, Input: "x", Mode: gather.UseReliable,
		})
	}
	cluster, err := NewLocalCluster(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	time.Sleep(50 * time.Millisecond)
	cluster.Close()
	cluster.Close() // idempotent
	// Start after close is a no-op.
	cluster.Hosts[0].Start()
}

func TestConnectBadAddress(t *testing.T) {
	h, err := NewHostConfig(HostConfig{N: 2, Addr: "127.0.0.1:0", Node: gather.NewThreeRoundNode(gather.Config{
		Trust: quorum.NewThreshold(4, 1), Input: "x",
	})})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Connect(1, "127.0.0.1:1"); err == nil {
		t.Fatal("expected dial error")
	}
}

// TestTransportImportsNoProtocolPackage pins the layering: the transport
// carries whatever codecs its binary's protocol packages registered with
// internal/wire and depends on none of them itself.
func TestTransportImportsNoProtocolPackage(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, path := range pkg.Imports { // non-test files only, sorted
		if strings.HasPrefix(path, "repro/") {
			got = append(got, path)
		}
	}
	want := "repro/internal/sim repro/internal/types repro/internal/wire"
	if strings.Join(got, " ") != want {
		t.Fatalf("non-test files import %v, want exactly %s", got, want)
	}
}

package sim_test

import (
	"testing"

	_ "repro/internal/core" // registers the consensus control messages
	"repro/internal/dag"
	"repro/internal/rider"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

type idleNode struct{}

func (idleNode) Init(sim.Env)                                  {}
func (idleNode) Receive(sim.Env, types.ProcessID, sim.Message) {}

// approxMsg has no codec: the simulator sizes it by its Sizer.
type approxMsg struct{}

func (approxMsg) SimSize() int { return 8 }

// TestSizingAllocatesNothing: once the runner's buffer has grown, sizing
// an ECHO, a SEND carrying a vertex, a core ACK or a message with no codec
// allocates nothing, so the byte metrics cost no garbage per send.
func TestSizingAllocatesNothing(t *testing.T) {
	decode := func(frame []byte) sim.Message {
		t.Helper()
		msg, rest, err := wire.Decode(frame)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode % x: %v", frame, err)
		}
		return msg
	}
	v := &dag.Vertex{Source: 1, Round: 2, Block: []string{"tx-a", "tx-b"},
		StrongEdges: []dag.VertexRef{{Source: 0, Round: 1}, {Source: 2, Round: 1}}}
	vertex, err := wire.Marshal(rider.VertexPayload{V: v})
	if err != nil {
		t.Fatal(err)
	}
	msgs := []sim.Message{
		decode(append([]byte{11, 1, 2}, make([]byte, 32)...)), // broadcast ECHO: [slot][digest]
		decode(append([]byte{10, 1, 2}, vertex...)),           // broadcast SEND: [slot][vertex frame]
		decode([]byte{40, 7}),                                 // core ACK of wave 7
		approxMsg{},
	}
	r := sim.NewRunner(sim.Config{N: 1}, []sim.Node{idleNode{}})
	for _, msg := range msgs {
		if a := testing.AllocsPerRun(100, func() { r.MsgSize(msg) }); a != 0 {
			t.Errorf("sizing %T allocates %v times", msg, a)
		}
	}
	if got := r.MsgSize(approxMsg{}); got != 8 {
		t.Errorf("a message with no codec sized %d, want its SimSize 8", got)
	}
}

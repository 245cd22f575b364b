// Flood load harness: a trivial counting node plus a cluster wrapper that
// drives broadcast storms through the real codec/framing/backpressure
// path. The loopback throughput benchmarks of this package measure it, and
// so does the benchmark driver in bench/ (its transport.flood_* per-layer
// metrics), which imports it; that is why it lives in the package proper
// and not in a test file.
package transport

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// wireTagFlood is FloodMsg's tag.
const wireTagFlood = 60

// FloodMsg is the benchmark payload: a sequence number plus opaque
// padding to dial the per-message wire size.
type FloodMsg struct {
	Seq uint64
	Pad []byte
}

func init() {
	wire.Register(wireTagFlood, FloodMsg{}, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			m := msg.(FloodMsg)
			dst = wire.AppendUvarint(dst, m.Seq)
			return wire.AppendBytes(dst, m.Pad), nil
		},
		Decode: func(b []byte) (any, []byte, error) {
			seq, rest, err := wire.ReadUvarint(b)
			if err != nil {
				return nil, b, fmt.Errorf("transport: flood seq: %w", err)
			}
			pad, rest, err := wire.ReadBytes(rest)
			if err != nil {
				return nil, b, fmt.Errorf("transport: flood pad: %w", err)
			}
			return FloodMsg{Seq: seq, Pad: pad}, rest, nil
		},
	})
}

// FloodNode counts every message it receives; it never sends from
// Receive, so all traffic is injected externally via Flood.
type FloodNode struct {
	Received atomic.Uint64
}

func (f *FloodNode) Init(sim.Env) {}

func (f *FloodNode) Receive(_ sim.Env, _ types.ProcessID, _ sim.Message) {
	f.Received.Add(1)
}

// FloodCluster is a loopback mesh of FloodNodes for throughput runs.
type FloodCluster struct {
	*LocalCluster
	Nodes []*FloodNode
}

// NewFloodCluster builds and starts an n-node loopback flood mesh.
func NewFloodCluster(n int, cfg LocalClusterConfig) (*FloodCluster, error) {
	nodes := make([]sim.Node, n)
	raw := make([]*FloodNode, n)
	for i := range nodes {
		fn := &FloodNode{}
		nodes[i] = fn
		raw[i] = fn
	}
	lc, err := NewLocalCluster(nodes, 0)
	if err != nil {
		return nil, err
	}
	lc.Start()
	return &FloodCluster{LocalCluster: lc, Nodes: raw}, nil
}

// Flood has every host broadcast one FloodMsg with padBytes of padding
// per round, for the given number of rounds, then waits until every node
// has received rounds*n messages (each broadcast reaches all n nodes,
// self included) or the timeout passes. It returns the number of
// messages delivered cluster-wide during this flood.
func (fc *FloodCluster) Flood(rounds, padBytes int, timeout time.Duration) (uint64, error) {
	n := len(fc.Hosts)
	start := make([]uint64, n)
	for i, fn := range fc.Nodes {
		start[i] = fn.Received.Load()
	}
	pad := make([]byte, padBytes)
	rand.New(rand.NewSource(1)).Read(pad)
	for r := 0; r < rounds; r++ {
		for _, h := range fc.Hosts {
			env := hostEnv{h: h}
			sim.Multicast(env, sim.Cast{Msg: FloodMsg{Seq: uint64(r), Pad: pad}})
		}
	}
	want := uint64(rounds * n)
	deadline := time.Now().Add(timeout)
	for {
		var total uint64
		done := 0
		for i, fn := range fc.Nodes {
			got := fn.Received.Load() - start[i]
			total += got
			if got >= want {
				done++
			}
		}
		if done == n {
			return total, nil
		}
		if time.Now().After(deadline) {
			return total, fmt.Errorf("transport: flood timeout: %d/%d messages delivered",
				total, want*uint64(n))
		}
		time.Sleep(time.Millisecond)
	}
}

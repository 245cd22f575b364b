package gather

import (
	"fmt"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// Kind selects a gather protocol for RunCluster.
type Kind int

const (
	// KindThreeRound is Algorithm 1 (threshold trust) / Algorithm 2
	// (asymmetric trust).
	KindThreeRound Kind = iota
	// KindConstantRound is Algorithm 3.
	KindConstantRound
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindThreeRound:
		return "three-round"
	case KindConstantRound:
		return "constant-round"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// RunConfig configures one gather execution.
type RunConfig struct {
	Kind    Kind
	Trust   quorum.Assumption
	Mode    Dissemination
	Latency sim.LatencyModel
	Seed    int64
	// Faulty optionally replaces nodes with faulty behaviours.
	Faulty map[types.ProcessID]sim.Node
	// Fault is an optional scenario fault plane (see sim.FaultPlane).
	Fault sim.FaultPlane
	// MaxEvents bounds the run (0 = the generous sim.DefaultEventBudget,
	// < 0 = unbounded) — the convention shared with the other protocol
	// runners, so a non-quiescing schedule cannot hang a gather sweep.
	// RunResult reports a truncated run via HitLimit.
	MaxEvents int
}

// RunResult captures everything the experiments need from one execution.
type RunResult struct {
	// Outputs maps each process that g-delivered to its output set.
	Outputs map[types.ProcessID]Pairs
	// SSnapshots maps each process that distributed an S set to that
	// snapshot (the common core, when it exists, is one of these).
	SSnapshots map[types.ProcessID]Pairs
	// Metrics are the network statistics of the run.
	Metrics *sim.Metrics
	// EndTime is the virtual time of quiescence (or cutoff).
	EndTime sim.VirtualTime
	// HitLimit reports that the run stopped at the MaxEvents budget with
	// deliveries still pending, instead of reaching quiescence.
	HitLimit bool
}

// InputValue is the conventional test input of a process.
func InputValue(p types.ProcessID) string { return fmt.Sprintf("v%d", int(p)+1) }

// RunCluster executes one gather instance across cfg.Trust.N() processes
// and collects the outputs. Process p proposes InputValue(p).
func RunCluster(cfg RunConfig) RunResult {
	n := cfg.Trust.N()
	nodes := make([]sim.Node, n)
	for i := range nodes {
		c := Config{Trust: cfg.Trust, Input: InputValue(types.ProcessID(i)), Mode: cfg.Mode}
		if cfg.Kind == KindConstantRound {
			nodes[i] = NewConstantRoundNode(c)
		} else {
			nodes[i] = NewThreeRoundNode(c)
		}
	}
	for p, f := range cfg.Faulty {
		nodes[p] = f
	}
	limit := sim.ResolveEventBudget(cfg.MaxEvents)
	r := sim.NewRunner(sim.Config{N: n, Seed: cfg.Seed, Latency: cfg.Latency, Fault: cfg.Fault}, nodes)
	r.Run(limit)

	res := RunResult{
		Outputs:    map[types.ProcessID]Pairs{},
		SSnapshots: map[types.ProcessID]Pairs{},
		Metrics:    r.Metrics(),
		EndTime:    r.Now(),
		HitLimit:   limit > 0 && r.Pending() > 0,
	}
	for i, nd := range nodes {
		g, ok := nd.(gatherNode)
		if !ok {
			continue // a faulty behaviour
		}
		p := types.ProcessID(i)
		if out, ok := g.Delivered(); ok {
			res.Outputs[p] = out
		}
		if s := g.SentS(); !s.IsZero() {
			res.SSnapshots[p] = s
		}
	}
	return res
}

// gatherNode is what RunCluster reads off a gather protocol's node.
type gatherNode interface {
	Delivered() (Pairs, bool)
	SentS() Pairs
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/broadcast"
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gather"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// loopBudget is how long each timed loop of the layer replay runs.
const loopBudget = 150 * time.Millisecond

// fixedBlocks is the capture run's workload: every vertex carries txs
// commands of size bytes, the workload's full block.
type fixedBlocks struct {
	self      types.ProcessID
	txs, size int
}

func (w fixedBlocks) NextBlock(round int) []string {
	block := make([]string, w.txs)
	buf := make([]byte, 0, w.size)
	for i := range block {
		block[i] = makeCmd(buf, i%keySpace, int(w.self), round*w.txs+i, w.size)
	}
	return block
}

// recorder keeps the messages one node of the capture run received.
type recorder struct {
	inner sim.Node
	msgs  []sim.Message
}

func (r *recorder) Init(env sim.Env) { r.inner.Init(env) }

func (r *recorder) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if len(r.msgs) < 20000 {
		r.msgs = append(r.msgs, msg)
	}
	r.inner.Receive(env, from, msg)
}

// capture is real traffic and a real DAG for the replay loops to push
// through each layer: one short untimed simulator run of core.Node with
// the workload's trust system and block shape, no GC.
type capture struct {
	trust    quorum.Assumption
	n        int
	msgs     []sim.Message // everything node 0 received
	dag      *dag.DAG      // node 0's DAG at the end
	vertices []*dag.Vertex // in insertion (round, source) order, genesis excluded
	top      int           // highest round fully present
}

func captureRun(trust quorum.Assumption, txs, size int, seed int64) (*capture, error) {
	n := trust.N()
	maxRound := 40
	if n > 10 {
		maxRound = 12 // keeps the n=30 capture around a second
	}
	c := coin.NewPRF(seed, n)
	nodes := make([]sim.Node, n)
	var first *core.Node
	rec := &recorder{}
	for i := range nodes {
		nd := core.NewNode(core.Config{Trust: trust, Coin: c, MaxRound: maxRound,
			Workload: fixedBlocks{self: types.ProcessID(i), txs: txs, size: size}})
		nodes[i] = nd
		if i == 0 {
			first = nd
			rec.inner = nd
			nodes[i] = rec
		}
	}
	r := sim.NewRunner(sim.Config{N: n, Seed: seed, Latency: sim.UniformLatency{Min: 1, Max: 20}}, nodes)
	r.Run(sim.DefaultEventBudget)
	if r.Pending() > 0 {
		return nil, fmt.Errorf("layer replay: capture run did not quiesce")
	}
	out := &capture{trust: trust, n: n, msgs: rec.msgs, dag: first.DAG()}
	for round := 1; round < out.dag.Height(); round++ {
		vs := out.dag.RoundVertices(round)
		if len(vs) == n {
			out.top = round
		}
		out.vertices = append(out.vertices, vs...)
	}
	if out.top < 8 || len(out.msgs) == 0 {
		return nil, fmt.Errorf("layer replay: capture run only completed round %d", out.top)
	}
	return out, nil
}

// quorumLayer times quorum.Compile, the incremental tracker and the
// any-quorum scan.
func (c *capture) quorumLayer(m map[string]float64, seed int64) {
	if sys, ok := c.trust.(*quorum.System); ok {
		m["quorum.compile_ms"] = timeLoop(loopBudget, func() { quorum.Compile(sys) }) / 1e6
	}
	rng := rand.New(rand.NewSource(seed))
	orders := make([][]int, 64)
	for i := range orders {
		orders[i] = rng.Perm(c.n)
	}
	k, hits := 0, 0
	perOrder := timeLoop(loopBudget, func() {
		t := quorum.NewTracker(c.trust, types.ProcessID(k%c.n))
		for _, p := range orders[k%len(orders)] {
			t.Add(types.ProcessID(p))
			if t.HasQuorum() {
				hits++
			}
		}
		k++
	})
	m["quorum.tracker_add_ns"] = perOrder / float64(c.n)

	sets := make([]types.Set, 0, len(c.vertices))
	for _, v := range c.vertices {
		s := types.NewSet(c.n)
		for _, e := range v.StrongEdges {
			s.Add(e.Source)
		}
		sets = append(sets, s)
	}
	k = 0
	m["quorum.any_quorum_within_ns"] = timeLoop(loopBudget, func() {
		if quorum.HasAnyQuorumWithin(c.trust, sets[k%len(sets)]) {
			hits++
		}
		k++
	})
	_ = hits
}

// wireLayer times the codec over the captured messages.
func (c *capture) wireLayer(m map[string]float64) (meanBytes int, err error) {
	frames := make([][]byte, len(c.msgs))
	total := 0
	for i, msg := range c.msgs {
		if frames[i], err = wire.Marshal(msg); err != nil {
			return 0, fmt.Errorf("layer replay: %w", err)
		}
		total += len(frames[i])
	}
	var buf []byte
	k := 0
	m["wire.encode_ns_per_msg"] = timeLoop(loopBudget, func() {
		buf, _ = wire.Append(buf[:0], c.msgs[k%len(c.msgs)])
		k++
	})
	k = 0
	m["wire.decode_ns_per_msg"] = timeLoop(loopBudget, func() {
		_, _, err = wire.Decode(frames[k%len(frames)])
		k++
	})
	if err != nil {
		return 0, fmt.Errorf("layer replay: %w", err)
	}
	m["wire.bytes_per_msg"] = float64(total) / float64(len(frames))
	return total / len(frames), nil
}

// floodLayer runs the transport with no consensus on top: the ceiling for
// throughput_tx_s at this cluster size and message size.
func floodLayer(m map[string]float64, n, msgBytes int, seed int64) error {
	fc, err := transport.NewFloodCluster(n, transport.LocalClusterConfig{Seed: seed})
	if err != nil {
		return fmt.Errorf("layer replay: flood cluster: %w", err)
	}
	defer fc.Close()
	rounds := max(50, (64<<20)/(n*n*max(msgBytes, 64)))
	rounds = min(rounds, 5000)
	before := fc.Stats()
	t0 := time.Now()
	got, err := fc.Flood(rounds, msgBytes, 60*time.Second)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	el := time.Since(t0).Seconds()
	st := diffStats(fc.Stats(), before)
	m["transport.flood_msgs_s"] = float64(got) / el
	m["transport.flood_mb_s"] = float64(st.BytesSent) / el / 1e6
	return nil
}

// memEnv is a bench-owned in-memory sim.Env for driving broadcast.Reliable
// alone: sends go to one FIFO that the caller drains.
type memEnv struct {
	self  types.ProcessID
	n     int
	queue *[]memMsg
	rng   *rand.Rand
}

type memMsg struct {
	from, to types.ProcessID
	msg      sim.Message
}

func (e memEnv) Self() types.ProcessID { return e.self }
func (e memEnv) N() int                { return e.n }
func (e memEnv) Now() sim.VirtualTime  { return 0 }
func (e memEnv) Rand() *rand.Rand      { return e.rng }
func (e memEnv) Send(to types.ProcessID, msg sim.Message) {
	*e.queue = append(*e.queue, memMsg{e.self, to, msg})
}
func (e memEnv) Broadcast(msg sim.Message) {
	for to := 0; to < e.n; to++ {
		e.Send(types.ProcessID(to), msg)
	}
}

// broadcastLayer drives n broadcast.Reliable instances through one slot per
// iteration with the given payload and reports handler time and the exact
// message and byte counts of a slot.
func (c *capture) broadcastLayer(m map[string]float64, suffix string, payload broadcast.Payload) error {
	var queue []memMsg
	envs := make([]memEnv, c.n)
	nodes := make([]*broadcast.Reliable, c.n)
	delivered := 0
	rng := rand.New(rand.NewSource(1))
	for i := range nodes {
		envs[i] = memEnv{self: types.ProcessID(i), n: c.n, queue: &queue, rng: rng}
		nodes[i] = broadcast.NewReliable(types.ProcessID(i), c.trust,
			func(sim.Env, broadcast.Slot, broadcast.Payload) { delivered++ })
	}
	var handled, bytes, slots int
	seq := uint64(0)
	perSlot := timeLoop(loopBudget, func() {
		seq++
		slots++
		nodes[0].Broadcast(envs[0], seq, payload)
		for i := 0; i < len(queue); i++ { // handlers append to queue
			e := queue[i]
			handled++
			bytes += sim.MessageSize(e.msg)
			nodes[e.to].Handle(envs[e.to], e.from, e.msg)
		}
		queue = queue[:0]
		for _, nd := range nodes {
			nd.PruneBelow(seq + 1)
		}
	})
	if delivered != slots*c.n {
		return fmt.Errorf("layer replay: reliable broadcast delivered %d of %d", delivered, slots*c.n)
	}
	m["broadcast.ns_per_handle."+suffix] = perSlot * float64(slots) / float64(handled)
	m["broadcast.msgs_per_slot"] = float64(handled) / float64(slots)
	m["broadcast.bytes_per_slot."+suffix] = float64(bytes) / float64(slots)
	return nil
}

// dagLayer replays the captured vertices through the DAG and the ordering
// routines.
func (c *capture) dagLayer(m map[string]float64) error {
	var err error
	perDAG := timeLoop(loopBudget, func() {
		d := dag.New(c.n)
		for _, g := range rider.Genesis(c.n) {
			if e := d.Add(g); e != nil {
				err = e
			}
		}
		for _, v := range c.vertices {
			if e := d.Add(v); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	m["dag.add_ns"] = perDAG / float64(len(c.vertices)+c.n)

	// Strong paths across one wave, as the commit rule asks for them.
	top := c.dag.RoundVertices(c.top)
	low := c.dag.RoundVertices(c.top - 3)
	k, hits := 0, 0
	m["dag.strong_path_ns"] = timeLoop(loopBudget, func() {
		if c.dag.StrongPath(top[k%len(top)].Ref(), low[(k/len(top))%len(low)].Ref()) {
			hits++
		}
		k++
	})
	_ = hits

	leader := []dag.VertexRef{top[0].Ref()}
	ordered := 0
	perOrder := timeLoop(loopBudget, func() {
		ordered = len(rider.OrderVertices(c.dag, leader, map[dag.VertexRef]bool{}, 1, 0))
	})
	m["rider.order_ns_per_vertex"] = perOrder / float64(max(ordered, 1))

	k = 0
	m["rider.weak_edges_ns"] = timeLoop(loopBudget, func() {
		src := top[k%len(top)]
		v := &dag.Vertex{Source: src.Source, Round: src.Round, StrongEdges: src.StrongEdges}
		rider.SetWeakEdges(c.dag, v, v.Round)
		k++
	})

	keyLen := 0
	m["rider.payload_key_ns"] = timeLoop(loopBudget, func() {
		keyLen += len(rider.VertexPayload{V: top[k%len(top)]}.Key())
		k++
	})
	_ = keyLen
	return nil
}

// serviceLayer times the state machine alone.
func serviceLayer(m map[string]float64, size int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cmds := make([]string, 4096)
	buf := make([]byte, 0, size)
	for i := range cmds {
		cmds[i] = makeCmd(buf, rng.Intn(keySpace), 0, i, max(size, cmdHeader))
	}
	kv := service.NewKV()
	k := 0
	m["service.apply_ns_per_tx"] = timeLoop(loopBudget, func() {
		kv.Apply(cmds[k%len(cmds)])
		k++
	})
	snapLen := 0
	m["service.snapshot_ms"] = timeLoop(loopBudget, func() { snapLen += len(kv.Snapshot()) }) / 1e6
	_ = snapLen
}

// gatherLayer runs the constant-round gather (Algorithm 3) once on the
// workload's trust system; its message count and virtual time are exact.
func gatherLayer(m map[string]float64, trust quorum.Assumption, seed int64) error {
	var res gather.RunResult
	perRun := timeLoop(loopBudget, func() {
		res = gather.RunCluster(gather.RunConfig{Kind: gather.KindConstantRound, Trust: trust, Seed: seed,
			Latency: sim.UniformLatency{Min: 1, Max: 20}})
	})
	if res.HitLimit || len(res.Outputs) != trust.N() {
		return fmt.Errorf("layer replay: gather delivered at %d of %d processes", len(res.Outputs), trust.N())
	}
	m["gather.alg3_msgs"] = float64(res.Metrics.MessagesSent)
	m["gather.alg3_vt"] = float64(res.EndTime)
	m["gather.alg3_wall_ms"] = perRun / 1e6
	return nil
}

// layerReplay fills m with the replayed per-layer metrics of one workload.
// tcp says whether the workload runs over the transport.
func layerReplay(m map[string]float64, trust quorum.Assumption, txs, size int, tcp bool, seed int64) error {
	c, err := captureRun(trust, txs, size, seed)
	if err != nil {
		return err
	}
	c.quorumLayer(m, seed)
	meanBytes, err := c.wireLayer(m)
	if err != nil {
		return err
	}
	if tcp {
		if err := floodLayer(m, c.n, meanBytes, seed); err != nil {
			return err
		}
	}
	full := c.dag.RoundVertices(c.top)[0]
	empty := &dag.Vertex{Source: full.Source, Round: full.Round, StrongEdges: full.StrongEdges}
	if err := c.broadcastLayer(m, "empty", rider.VertexPayload{V: empty}); err != nil {
		return err
	}
	if err := c.broadcastLayer(m, "block", rider.VertexPayload{V: full}); err != nil {
		return err
	}
	if err := c.dagLayer(m); err != nil {
		return err
	}
	serviceLayer(m, size, seed)
	return gatherLayer(m, trust, seed)
}

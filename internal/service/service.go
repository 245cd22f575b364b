// Package service turns the batch-oriented consensus runs of
// internal/core into an indefinitely-running replicated state machine —
// the long-lived service mode of the ROADMAP's millions-of-users story.
//
// Each Replica is a sim.Node wrapping one core.Node and owning the full
// client-to-state lifecycle:
//
//		queue → batch → block → wave → commit → apply → snapshot/compact
//
//	  - A deterministic self-addressed tick loop injects clientRate
//	    synthetic client commands per tick into an admission-bounded
//	    request queue (commands beyond MaxQueue are rejected and counted —
//	    backpressure, never unbounded growth).
//	  - The queue drains through rider.QueueWorkload: up to BatchSize
//	    transactions are batched into the block of each vertex the node
//	    proposes.
//	  - Waves are pipelined: core.Config.PipelineDepth lets proposals run
//	    ahead of decisions by a bounded number of waves, so the replica
//	    never idles waiting for a commit, yet the undecided window — the
//	    state GC cannot reclaim — stays finite.
//	  - Garbage collection is mandatory in service mode (Config.GCDepth
//	    must be positive; withDefaults enforces it): the DAG's round
//	    window, the reliable-broadcast slot trackers, the coin share maps
//	    and the delivered/acked bookkeeping are all pruned below the
//	    decided horizon, so memory is bounded over an unbounded run.
//	  - Committed deliveries stream through the core sinks straight into
//	    the replica's state machine; there is no ever-growing delivery
//	    log. Every SnapshotEvery decided waves the replica records a
//	    Snapshot (applied state + the wave it covers) and compacts: the
//	    transactions applied since the last snapshot count as compacted,
//	    and the replica keeps none of them.
//	    A snapshot is exactly what the ROADMAP's state-sync item will
//	    transfer to a joining node.
//
// Because atomic broadcast delivers a total order, the applied state
// after the commit that set decidedWave = w is a pure function of the
// wave-w leader chain: two replicas that both pass through decidedWave w
// have byte-identical snapshots at w, even if churn made them commit
// different intermediate wave sequences. The service tests assert exactly
// this, and the snapshot-equivalence suite additionally records the
// applied order through a wrapping state machine and replays it against
// every snapshot.
//
// Note on deployments: PR 7 replaced the gob transport encoding with the
// framed binary codec (internal/wire), an incompatible wire break. A
// long-lived service cannot be upgraded across such a break by rolling
// restarts alone — a cluster must either restart from a common snapshot
// (this package's Snapshot is the unit a replica would reload) or gate
// the codec change behind the transport hello's version field.
package service

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/sim"
	"repro/internal/types"
)

// tickMsg is the replica's self-addressed client-load heartbeat. Exactly
// one tick per replica is in flight at any time: each tick is re-armed
// only while being processed, so buffered churn replay cannot fork the
// chain (the Seq guard additionally absorbs duplication faults). A
// self-send crosses no link, so it needs no codec.
type tickMsg struct {
	Seq uint64
}

// SimType implements sim.Typer.
func (tickMsg) SimType() string { return "service.tick" }

// Config configures a service run.
type Config struct {
	// Trust is the quorum assumption shared by all replicas.
	Trust quorum.Assumption
	// Seed drives the network schedule; CoinSeed the leader election.
	Seed, CoinSeed int64
	// Latency is the network model (default uniform 1..20).
	Latency sim.LatencyModel

	// MaxQueue bounds the pending-command queue; commands arriving at a
	// full queue are rejected and counted (default 1024).
	MaxQueue int
	// BatchSize caps the transactions batched into one block (default 16).
	BatchSize int

	// PipelineDepth bounds how many waves proposals may run ahead of
	// decisions (default 8; see core.Config.PipelineDepth).
	PipelineDepth int
	// GCDepth is the garbage-collection horizon in rounds (default 12).
	// Service mode requires GC; withDefaults raises 0 to the default and
	// Run panics on a negative value.
	GCDepth int
	// RevealedCoin enables the share-gated coin (core.Config.RevealedCoin).
	RevealedCoin bool

	// SnapshotEvery takes a state snapshot and compacts the applied log
	// every time the decided wave advances by this many waves (default 4).
	SnapshotEvery int

	// NewMachine builds each replica's state machine (default NewKV).
	NewMachine func(p types.ProcessID) StateMachine

	// StopAfterWaves ends the run once every replica has decided at least
	// this wave (default 20), or at sim.DefaultEventBudget events
	// (Result.HitLimit). The service itself is open-ended — this is the
	// test/benchmark stop condition.
	StopAfterWaves int
	// DeliveryWorkers opts into parallel same-time delivery (see
	// sim.Config.DeliveryWorkers).
	DeliveryWorkers int

	// Fault is the simulator's fault plane and Wrap wraps each replica
	// (see harness.ServiceScenarioConfig, which sets both from a
	// scenario). Wrap receives the *Replica; the stop condition waits for
	// every replica to decide, so a wrapper must keep it running.
	Fault sim.FaultPlane
	Wrap  func(p types.ProcessID, inner sim.Node) sim.Node
}

// The synthetic client load: each replica admits clientRate commands per
// tick, "set k<i mod keySpace> p<self>.<i>" for consecutive i.
const (
	clientRate = 4
	keySpace   = 32
)

func (cfg Config) withDefaults() Config {
	if cfg.Latency == nil {
		cfg.Latency = sim.UniformLatency{Min: 1, Max: 20}
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 1024
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 16
	}
	if cfg.PipelineDepth == 0 {
		cfg.PipelineDepth = 8
	}
	if cfg.GCDepth == 0 {
		cfg.GCDepth = 12
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 4
	}
	if cfg.NewMachine == nil {
		cfg.NewMachine = func(types.ProcessID) StateMachine { return NewKV() }
	}
	if cfg.StopAfterWaves == 0 {
		cfg.StopAfterWaves = 20
	}
	return cfg
}

// Snapshot is one compaction point: the machine state after applying the
// total order up to (and including) the commit that set decidedWave=Wave.
type Snapshot struct {
	Wave    int             // decided wave the snapshot covers
	Applied int             // transactions applied up to this point
	State   []byte          // StateMachine.Snapshot() serialization
	Time    sim.VirtualTime // virtual time the snapshot was taken
	// Live samples the node's GC-bounded structures at the snapshot
	// point; the bounded-memory soak asserts these stay flat.
	Live core.LiveStats
}

// Replica is one service node: a core consensus node plus client load
// generation, state-machine application, and snapshot/compaction. It
// implements sim.Node; Unwrap exposes the inner consensus node.
type Replica struct {
	cfg  Config
	self types.ProcessID

	node    *core.Node
	queue   *rider.QueueWorkload
	machine StateMachine

	tickSeq uint64
	nextCmd int
	// cmds holds client commands nextCmd, nextCmd+1, … rendered ahead,
	// each ended by a newline; cmdBuf is the scratch they are rendered in.
	cmds   string
	cmdBuf []byte

	submitted int
	rejected  int
	// admitted records when own commands firstOpen, firstOpen+1, …,
	// nextCmd-1 were admitted, for commit-latency measurement, indexed by
	// command number - firstOpen. Applying a command marks its entry
	// appliedMark, and marked entries leave from the front, so the slice
	// spans the oldest own command not yet applied to the newest admitted:
	// MaxQueue plus the blocks in flight, as own vertices deliver almost in
	// round order. A command that never applied would keep every later
	// entry, where the map this replaced kept only its own.
	admitted  []sim.VirtualTime
	firstOpen int
	latency   histogram

	decidedWave int
	commits     int
	applied     int
	// tail counts the transactions applied since the last snapshot;
	// snapshots add it to compacted.
	tail      int
	compacted int

	lastSnapWave int
	snapshots    []Snapshot

	peak      core.LiveStats
	peakQueue int

	now sim.VirtualTime // last observed virtual time, for sink timestamps
}

var _ sim.Node = (*Replica)(nil)

// NewReplica builds one service replica. Most callers use Run.
func NewReplica(cfg Config, c coin.Source) *Replica {
	rep := &Replica{
		cfg:   cfg,
		queue: &rider.QueueWorkload{BatchSize: cfg.BatchSize},
	}
	rep.node = core.NewNode(core.Config{
		Trust:         cfg.Trust,
		Coin:          c,
		Workload:      rep.queue,
		RevealedCoin:  cfg.RevealedCoin,
		GCDepth:       cfg.GCDepth,
		PipelineDepth: cfg.PipelineDepth,
		DeliverySink:  rep.onDelivery,
		CommitSink:    rep.onCommit,
	})
	return rep
}

// Init implements sim.Node: start the consensus node and arm the client
// tick loop.
func (s *Replica) Init(env sim.Env) {
	s.self = env.Self()
	s.machine = s.cfg.NewMachine(s.self)
	s.now = env.Now()
	s.node.Init(env)
	env.Send(s.self, tickMsg{Seq: s.tickSeq})
}

// Receive implements sim.Node.
func (s *Replica) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	s.now = env.Now()
	if t, ok := msg.(tickMsg); ok {
		if from == s.self {
			s.onTick(env, t)
		}
		return
	}
	s.node.Receive(env, from, msg)
}

// Unwrap exposes the consensus node (sim.Unwrapper).
func (s *Replica) Unwrap() sim.Node { return s.node }

// onTick admits this tick's client commands and re-arms the loop.
func (s *Replica) onTick(env sim.Env, t tickMsg) {
	if t.Seq != s.tickSeq {
		return // stale duplicate (link-duplication faults)
	}
	s.tickSeq++
	for i := 0; i < clientRate; i++ {
		if s.queue.Len() >= s.cfg.MaxQueue {
			s.rejected++
			continue
		}
		cmd := s.nextCommand()
		s.submitted++
		s.admitted = append(s.admitted, env.Now())
		s.queue.Submit(cmd)
	}
	if q := s.queue.Len(); q > s.peakQueue {
		s.peakQueue = q
	}
	s.sampleLive()
	env.Send(s.self, tickMsg{Seq: s.tickSeq})
}

// cmdBatch is how many client commands nextCommand renders into one string.
const cmdBatch = 256

// nextCommand returns client command nextCmd, "set k<i mod keySpace>
// p<self>.<i>" for i = nextCmd, and advances nextCmd. Commands are rendered
// cmdBatch at a time into one string, and each is a substring of it, so
// a string is allocated once per cmdBatch commands. A command's text
// depends on i alone, so the batching does not show in the commands.
func (s *Replica) nextCommand() string {
	if s.cmds == "" {
		buf := s.cmdBuf[:0]
		for i := s.nextCmd; i < s.nextCmd+cmdBatch; i++ {
			buf = append(buf, "set k"...)
			buf = strconv.AppendInt(buf, int64(i%keySpace), 10)
			buf = append(buf, " p"...)
			buf = strconv.AppendInt(buf, int64(s.self), 10)
			buf = append(buf, '.')
			buf = strconv.AppendInt(buf, int64(i), 10)
			buf = append(buf, '\n')
		}
		s.cmdBuf, s.cmds = buf, string(buf)
	}
	end := strings.IndexByte(s.cmds, '\n')
	cmd := s.cmds[:end]
	s.cmds = s.cmds[end+1:]
	s.nextCmd++
	return cmd
}

// onDelivery is the core DeliverySink: apply the total order to the state
// machine and account latency for own commands, the txs of own vertices.
func (s *Replica) onDelivery(d rider.Delivery) {
	own := d.Ref.Source == s.self
	for _, tx := range d.Txs {
		s.machine.Apply(tx)
		s.applied++
		s.tail++
		if own {
			s.observeLatency(tx)
		}
	}
	if own {
		k := 0
		for k < len(s.admitted) && s.admitted[k] == appliedMark {
			k++
		}
		s.admitted = slices.Delete(s.admitted, 0, k)
		s.firstOpen += k
	}
}

// appliedMark marks the admitted entry of an applied own command.
const appliedMark sim.VirtualTime = -1

// observeLatency records the commit latency of own command tx, whose number
// nextCommand wrote after its last '.', and marks its entry applied. A
// command applied before, whose entry is marked or gone, is not counted
// again. Own vertices can deliver out of round order, so the entry need not
// be the first.
func (s *Replica) observeLatency(tx string) {
	i, err := strconv.Atoi(tx[strings.LastIndexByte(tx, '.')+1:])
	if err != nil {
		return
	}
	i -= s.firstOpen
	if i < 0 || i >= len(s.admitted) || s.admitted[i] == appliedMark {
		return
	}
	s.latency.observe(int64(s.now - s.admitted[i]))
	s.admitted[i] = appliedMark
}

// onCommit is the core CommitSink: it fires after the wave's deliveries
// were applied (see core.Config.DeliverySink ordering), so crossing a
// snapshot boundary here captures exactly the state at decidedWave.
func (s *Replica) onCommit(ev rider.CommitEvent) {
	s.decidedWave = ev.Wave
	s.commits++
	if ev.Wave >= s.lastSnapWave+s.cfg.SnapshotEvery {
		s.takeSnapshot(ev.Wave)
	}
	s.sampleLive()
}

// takeSnapshot records the compaction point and compacts the transactions
// applied since the last one.
func (s *Replica) takeSnapshot(wave int) {
	s.snapshots = append(s.snapshots, Snapshot{
		Wave:    wave,
		Applied: s.applied,
		State:   s.machine.Snapshot(),
		Time:    s.now,
		Live:    s.node.Live(),
	})
	s.lastSnapWave = wave
	s.compacted += s.tail
	s.tail = 0
}

// sampleLive folds the node's live-state counters into the peak tracker.
func (s *Replica) sampleLive() {
	l := s.node.Live()
	if l.DAGVertices > s.peak.DAGVertices {
		s.peak.DAGVertices = l.DAGVertices
	}
	if l.DAGRounds > s.peak.DAGRounds {
		s.peak.DAGRounds = l.DAGRounds
	}
	if l.BroadcastSlots > s.peak.BroadcastSlots {
		s.peak.BroadcastSlots = l.BroadcastSlots
	}
	if l.Buffered > s.peak.Buffered {
		s.peak.Buffered = l.Buffered
	}
	if l.RoundTrackers > s.peak.RoundTrackers {
		s.peak.RoundTrackers = l.RoundTrackers
	}
	if l.WaveCtls > s.peak.WaveCtls {
		s.peak.WaveCtls = l.WaveCtls
	}
	if l.PendingPairs > s.peak.PendingPairs {
		s.peak.PendingPairs = l.PendingPairs
	}
	if l.CoinWaves > s.peak.CoinWaves {
		s.peak.CoinWaves = l.CoinWaves
	}
}

// Live returns the replica's current live-state counters (soak tests).
func (s *Replica) Live() core.LiveStats { return s.node.Live() }

// DecidedWave returns the replica's last decided wave.
func (s *Replica) DecidedWave() int { return s.decidedWave }

// Report summarizes one replica at the end of a run.
type Report struct {
	DecidedWave int
	Commits     int
	Applied     int // transactions applied to the state machine
	Submitted   int // own client commands admitted
	Rejected    int // own client commands refused by admission control
	Compacted   int // applied transactions dropped by compaction
	TailLen     int // applied transactions above the last snapshot
	PeakQueue   int
	PeakLive    core.LiveStats
	Snapshots   []Snapshot
	FinalState  []byte
	// Latency summarizes own-command commit latency in virtual time.
	Latency LatencySummary
}

// Result is the outcome of one service run.
type Result struct {
	Replicas map[types.ProcessID]*Report
	Metrics  *sim.Metrics
	EndTime  sim.VirtualTime
	// Stopped reports the stop condition was reached; HitLimit that the
	// event budget ended the run first.
	Stopped  bool
	HitLimit bool
	Config   Config
}

// Run executes one service cluster until the stop condition (or the event
// budget) and collects per-replica reports.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	if cfg.GCDepth < 0 {
		panic("service: GCDepth must be positive (GC is mandatory in service mode)")
	}
	n := cfg.Trust.N()
	c := coin.NewPRF(cfg.CoinSeed, n)

	replicas := make([]*Replica, n)
	nodes := make([]sim.Node, n)
	for i := range nodes {
		replicas[i] = NewReplica(cfg, c)
		nodes[i] = replicas[i]
		if cfg.Wrap != nil {
			nodes[i] = cfg.Wrap(types.ProcessID(i), nodes[i])
		}
	}

	r := sim.NewRunner(sim.Config{
		N: n, Seed: cfg.Seed, Latency: cfg.Latency, Fault: cfg.Fault,
		DeliveryWorkers: cfg.DeliveryWorkers,
	}, nodes)
	stopped := r.RunUntil(func() bool {
		for _, rep := range replicas {
			if rep.decidedWave < cfg.StopAfterWaves {
				return false
			}
		}
		return true
	}, sim.DefaultEventBudget)

	res := Result{
		Replicas: map[types.ProcessID]*Report{},
		Metrics:  r.Metrics(),
		EndTime:  r.Now(),
		Stopped:  stopped,
		HitLimit: !stopped,
		Config:   cfg,
	}
	for i, rep := range replicas {
		res.Replicas[types.ProcessID(i)] = &Report{
			DecidedWave: rep.decidedWave,
			Commits:     rep.commits,
			Applied:     rep.applied,
			Submitted:   rep.submitted,
			Rejected:    rep.rejected,
			Compacted:   rep.compacted,
			TailLen:     rep.tail,
			PeakQueue:   rep.peakQueue,
			PeakLive:    rep.peak,
			Snapshots:   rep.snapshots,
			FinalState:  rep.machine.Snapshot(),
			Latency:     rep.latency.summary(),
		}
	}
	return res
}

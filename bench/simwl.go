package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/types"
)

// simSpec describes one simulator workload: service.Run over a fixed seed
// set, optionally under the named built-in fault scenarios.
type simSpec struct {
	name          string
	trust         func() quorum.Assumption
	stopWaves     int
	snapshotEvery int      // 0 = service default
	scenarios     []string // empty = fault-free
	// seedsPerSecond sizes the seed set (per scenario) from --seconds so the
	// measured work is fixed by the arguments, not by how fast the host is;
	// calibrated so the set takes about --seconds on the reference host.
	seedsPerSecond float64
}

// Service defaults the probes rely on (service.Config zero values).
const (
	simClientRate = 4
	simBatchSize  = 16
)

var simSpecs = []simSpec{
	{
		name:           "sim_asym_n30",
		trust:          func() quorum.Assumption { return quorum.Counterexample() },
		stopWaves:      10,
		seedsPerSecond: 0.25,
	},
	{
		name:           "sim_faults_n7",
		trust:          func() quorum.Assumption { return quorum.NewThreshold(7, 2) },
		stopWaves:      8,
		snapshotEvery:  1,
		scenarios:      []string{"partition-heal", "rolling-churn", "crash-recover"},
		seedsPerSecond: 6.4,
	},
}

// seedCount is the size of the seed set for a run of the given length.
func (s *simSpec) seedCount(seconds float64) int {
	return max(1, int(math.Round(seconds*s.seedsPerSecond)))
}

// probe watches one simulated replica from outside: it wraps the replica to
// see its client ticks (and, on traced runs, to time every Receive), and
// wraps its state machine to see every apply.
type probe struct {
	self  types.ProcessID
	inner sim.Node
	core  *core.Node
	kv    *service.KV
	epoch time.Time
	tr    *tracer

	// One entry per client tick the replica processed: commands
	// [k*simClientRate, (k+1)*simClientRate) were submitted at tick k.
	tickAt    []sim.VirtualTime
	tickRound []int32
	now       sim.VirtualTime // of the Receive in progress

	latencies []float64 // virtual time, own commands
	rounds    []float64
}

var _ sim.Node = (*probe)(nil)
var _ service.StateMachine = (*probe)(nil)

func (p *probe) wall() int64 { return int64(time.Since(p.epoch)) }

func (p *probe) Init(env sim.Env) {
	if p.tr == nil {
		p.inner.Init(env)
		return
	}
	t0 := p.wall()
	p.tr.enter(p.self)
	p.inner.Init(env)
	p.tr.exit(p.self, nil, t0, p.wall())
}

func (p *probe) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	p.now = env.Now()
	if t, ok := msg.(sim.Typer); ok && from == p.self && t.SimType() == "service.tick" {
		p.tickAt = append(p.tickAt, p.now)
		p.tickRound = append(p.tickRound, int32(p.core.Round()))
	}
	if p.tr == nil {
		p.inner.Receive(env, from, msg)
		return
	}
	t0 := p.wall()
	p.tr.enter(p.self)
	p.inner.Receive(env, from, msg)
	p.tr.exit(p.self, msg, t0, p.wall())
}

// Apply implements service.StateMachine around the real KV.
func (p *probe) Apply(tx string) {
	if p.tr == nil {
		p.kv.Apply(tx)
	} else {
		t0 := p.wall()
		p.kv.Apply(tx)
		p.tr.apply(p.self, t0, p.wall(), 1)
	}
	// Commands read "set k<key> p<origin>.<index>".
	i := strings.LastIndexByte(tx, 'p')
	if i < 0 {
		return
	}
	origin, index, ok := strings.Cut(tx[i+1:], ".")
	if !ok || origin != strconv.Itoa(int(p.self)) {
		return
	}
	idx, err := strconv.Atoi(index)
	if err != nil || idx/simClientRate >= len(p.tickAt) {
		return
	}
	tick := idx / simClientRate
	p.latencies = append(p.latencies, float64(p.now-p.tickAt[tick]))
	p.rounds = append(p.rounds, float64(int32(p.core.Round())-p.tickRound[tick]))
}

func (p *probe) Snapshot() []byte { return p.kv.Snapshot() }

// simSeed is what one service.Run produced.
type simSeed struct {
	scenario          string
	wall              time.Duration
	cpu               time.Duration
	mallocs, bytes    uint64
	gcCycles          uint32
	gcCPU             float64
	msgs, wire        int // protocol traffic, client ticks excluded
	byType            map[string]int
	delivered         int
	dropped           int
	committed         int // longest applied log
	waves, commits    int
	submitted         int
	rejected          int
	proposedRounds    int
	endVT             float64
	p50vt             float64 // worst replica
	gapVT             float64
	peak              core.LiveStats
	latencies, rounds []float64
}

// serviceConfig is the service.Config of one seed.
func (s *simSpec) serviceConfig(trust quorum.Assumption, seed int64, scen string, workers int) (service.Config, error) {
	cfg := service.Config{
		Trust:           trust,
		Seed:            seed,
		CoinSeed:        seed,
		StopAfterWaves:  s.stopWaves,
		SnapshotEvery:   s.snapshotEvery,
		DeliveryWorkers: workers,
	}
	if scen != "" {
		def, ok := scenario.Find(scen)
		if !ok {
			return cfg, fmt.Errorf("%s: no built-in scenario %q", s.name, scen)
		}
		cfg = harness.ServiceScenarioConfig(def, cfg, seed)
	}
	return cfg, nil
}

// runSeed runs one seed with probes attached and checks its outputs.
func (s *simSpec) runSeed(trust quorum.Assumption, seed int64, scen string, workers int, tr *tracer) (*simSeed, error) {
	cfg, err := s.serviceConfig(trust, seed, scen, workers)
	if err != nil {
		return nil, err
	}
	n := trust.N()
	epoch := time.Now()
	probes := make([]*probe, n)
	faultWrap := cfg.Wrap
	cfg.Wrap = func(p types.ProcessID, inner sim.Node) sim.Node {
		// service.Run hands Wrap its *service.Replica, which unwraps to the
		// consensus node.
		pr := &probe{self: p, inner: inner, core: sim.Unwrap(inner).(*core.Node),
			kv: service.NewKV(), epoch: epoch, tr: tr}
		probes[p] = pr
		if faultWrap != nil {
			return faultWrap(p, pr)
		}
		return pr
	}
	cfg.NewMachine = func(p types.ProcessID) service.StateMachine { return probes[p] }

	runtime.GC()
	before := takeSnapshot(nil)
	t0 := time.Now()
	res := service.Run(cfg)
	out := &simSeed{scenario: scen, wall: time.Since(t0)}
	after := takeSnapshot(nil)
	out.cpu = after.cpu - before.cpu
	out.mallocs = after.mem.Mallocs - before.mem.Mallocs
	out.bytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	out.gcCycles = after.mem.NumGC - before.mem.NumGC
	out.gcCPU = after.gcCPU - before.gcCPU

	if !res.Stopped {
		return nil, fmt.Errorf("%s seed %d %s: run hit the event budget before every replica decided wave %d",
			s.name, seed, scen, s.stopWaves)
	}
	compared, err := service.CompareSnapshots(res)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d %s: %w", s.name, seed, scen, err)
	}
	if compared == 0 {
		return nil, fmt.Errorf("%s seed %d %s: no snapshot wave shared by two replicas, agreement unchecked", s.name, seed, scen)
	}

	ticks := res.Metrics.ByType["service.tick"]
	out.msgs = res.Metrics.MessagesSent - ticks
	out.wire = res.Metrics.BytesSent - 8*ticks // tickMsg.SimSize
	out.byType = res.Metrics.ByType
	out.endVT = float64(res.EndTime)
	out.delivered = res.Metrics.MessagesDelivered
	out.dropped = res.Metrics.MessagesDropped
	for p, rep := range res.Replicas {
		out.committed = max(out.committed, rep.Applied)
		out.waves += rep.DecidedWave
		out.commits += rep.Commits
		out.submitted += rep.Submitted
		out.rejected += rep.Rejected
		out.p50vt = max(out.p50vt, float64(rep.Latency.P50))
		for i := 1; i < len(rep.Snapshots); i++ {
			out.gapVT = max(out.gapVT, float64(rep.Snapshots[i].Time-rep.Snapshots[i-1].Time))
		}
		raiseLive(&out.peak, rep.PeakLive)
		pr := probes[p]
		if got := len(pr.tickAt) * simClientRate; got != rep.Submitted+rep.Rejected {
			return nil, fmt.Errorf("%s seed %d %s: replica %d saw %d ticks but reports %d commands; the tick-to-command mapping is off",
				s.name, seed, scen, p, len(pr.tickAt), rep.Submitted+rep.Rejected)
		}
		out.proposedRounds += pr.core.Round()
		out.latencies = append(out.latencies, pr.latencies...)
		out.rounds = append(out.rounds, pr.rounds...)
	}
	return out, nil
}

// simSetup does what service.Run does before its first event — build and
// compile the trust system, the scenario, the replicas and the runner —
// and returns how long that took.
func (s *simSpec) simSetup(seed int64) (time.Duration, error) {
	t0 := time.Now()
	trust := s.trust()
	if sys, ok := trust.(*quorum.System); ok {
		sys.Evaluator()
	}
	scen := ""
	if len(s.scenarios) > 0 {
		scen = s.scenarios[0]
	}
	cfg, err := s.serviceConfig(trust, seed, scen, 0)
	if err != nil {
		return 0, err
	}
	cfg.BatchSize = simBatchSize
	cfg.GCDepth = gcDepth
	cfg.PipelineDepth = pipelineDepth
	n := trust.N()
	c := coin.NewPRF(seed, n)
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = service.NewReplica(cfg, c)
		if cfg.Wrap != nil {
			nodes[i] = cfg.Wrap(types.ProcessID(i), nodes[i])
		}
	}
	sim.NewRunner(sim.Config{N: n, Seed: seed, Latency: sim.UniformLatency{Min: 1, Max: 20}, Fault: cfg.Fault}, nodes)
	return time.Since(t0), nil
}

// simRun is one pass over a simulator workload's seed set.
type simRun struct {
	trust quorum.Assumption
	seeds []*simSeed
	wall  time.Duration
}

// runSim runs count seeds (per scenario) starting at seed.
func runSim(s *simSpec, seed int64, count int, tr *tracer) (*simRun, error) {
	run := &simRun{trust: s.trust()}
	scens := s.scenarios
	if len(scens) == 0 {
		scens = []string{""}
	}
	t0 := time.Now()
	for _, scen := range scens {
		for k := 0; k < count; k++ {
			one, err := s.runSeed(run.trust, seed+int64(k), scen, 0, tr)
			if err != nil {
				return nil, err
			}
			run.seeds = append(run.seeds, one)
		}
	}
	run.wall = time.Since(t0)
	return run, nil
}

// sum adds f over the seeds.
func (r *simRun) sum(f func(*simSeed) float64) float64 {
	var t float64
	for _, s := range r.seeds {
		t += f(s)
	}
	return t
}

// each collects f over the seeds of one scenario ("" = all).
func (r *simRun) each(scen string, f func(*simSeed) float64) []float64 {
	var out []float64
	for _, s := range r.seeds {
		if scen == "" || s.scenario == scen {
			out = append(out, f(s))
		}
	}
	return out
}

// paperBound is |P|/c(Q), the paper's bound on the expected number of waves
// per commit for the trust system.
func paperBound(trust quorum.Assumption) float64 {
	if q, ok := trust.(quorum.QuorumSizer); ok && q.SmallestQuorumSize() > 0 {
		return float64(trust.N()) / float64(q.SmallestQuorumSize())
	}
	return 0
}

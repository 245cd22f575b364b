package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"sync"
	"time"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/types"
)

// tcpSpec describes one TCP workload: a loopback cluster of bench-owned
// replicas (core.Node + queue + KV) driven by a single load generator.
type tcpSpec struct {
	name      string
	trust     func() (quorum.Assumption, error)
	batch     int           // rider.QueueWorkload.BatchSize
	cmdBytes  int           // exact length of every command
	delay     time.Duration // injected one-way delay on remote links; 0 = none
	rate      int           // open loop: commands/s over the cluster; 0 = closed loop
	depth     int           // closed loop: commands kept queued at every replica
	lateLimit time.Duration // a command applied later than this after it was due fails
	drain     time.Duration // longest wait after the window for attempted commands
}

const (
	gcDepth       = 12
	pipelineDepth = 8
	keySpace      = 1024
	checkpointTxs = 1000
	warmup        = time.Second
	// cmdHeader is the fixed-width prefix every command carries:
	// "set kKKKK OO.SSSSSSSSS" (key, origin replica, origin-local sequence).
	cmdHeader = len("set k0000 00.000000000")
)

var tcpSpecs = []tcpSpec{
	{
		name: "tcp_paced_n4",
		trust: func() (quorum.Assumption, error) {
			return quorum.NewThreshold(4, 1), nil
		},
		batch: 64, cmdBytes: 32, delay: 5 * time.Millisecond, rate: 2000,
		lateLimit: time.Second, drain: time.Second,
	},
	{
		name: "tcp_sat_fed10",
		trust: func() (quorum.Assumption, error) {
			return quorum.NewFederated(quorum.FederatedConfig{N: 10, TopTier: 7, TrustedPeers: 2, Tolerance: 2, Seed: 5})
		},
		batch: 32, cmdBytes: 1024, depth: 64,
		lateLimit: 5 * time.Second, drain: 5 * time.Second,
	},
}

// held is one remote message waiting out the injected link delay.
type held struct {
	release time.Time
	from    types.ProcessID
	msg     sim.Message
}

// replica is the bench-owned sim.Node hosted by transport.Host. All of its
// fields except wake/stop are touched only on the host's node goroutine
// (Init, Receive, the core sinks and functions passed to Host.Inspect).
type replica struct {
	self  types.ProcessID
	epoch time.Time
	spec  *tcpSpec
	node  *core.Node
	queue *rider.QueueWorkload
	kv    *service.KV
	host  *transport.Host
	env   sim.Env
	tr    *tracer // nil when tracing is off

	// Injected delay: remote messages are parked here and released by pump.
	pending []held
	wake    chan time.Time
	stop    chan struct{}

	// Oracle state: running hash of the applied sequence, checkpointed
	// every checkpointTxs, plus one bitmap per origin for duplicates.
	sum         hash.Hash
	checkpoints [][sha256.Size]byte
	seen        [][]uint64
	dup         string

	applied     int
	winFrom     int64 // measured window, ns since epoch
	winTo       int64
	winApplied  int
	commits     int
	decidedWave int

	// Own commands, indexed by origin-local sequence; times are ns since
	// epoch, 0 = not yet.
	due, accepted, appliedAt []int64
	round0, round1           []int32
	proposed, applyStart     []int64 // traced runs only
	blocks, blockTxs         int     // traced runs only
	ownScratch               []int
}

func newReplica(spec *tcpSpec, trust quorum.Assumption, c coin.Source, n int, epoch time.Time, tr *tracer) *replica {
	r := &replica{
		epoch: epoch,
		spec:  spec,
		queue: &rider.QueueWorkload{BatchSize: spec.batch},
		kv:    service.NewKV(),
		tr:    tr,
		wake:  make(chan time.Time, 1),
		stop:  make(chan struct{}),
		sum:   sha256.New(),
		seen:  make([][]uint64, n),
	}
	var wl rider.Workload = r.queue
	if tr != nil {
		wl = tracedQueue{r}
	}
	r.node = core.NewNode(core.Config{
		Trust:         trust,
		Coin:          c,
		Workload:      wl,
		GCDepth:       gcDepth,
		PipelineDepth: pipelineDepth,
		DeliverySink:  r.onDelivery,
		CommitSink:    r.onCommit,
	})
	return r
}

func (r *replica) now() int64 { return int64(time.Since(r.epoch)) }

// Init implements sim.Node.
func (r *replica) Init(env sim.Env) {
	r.self = env.Self()
	r.env = env
	r.receive(env, r.self, nil)
}

// Receive implements sim.Node: remote messages wait out the injected delay,
// self-sends pass through.
func (r *replica) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if r.spec.delay == 0 || from == r.self {
		r.receive(env, from, msg)
		return
	}
	at := time.Now().Add(r.spec.delay)
	r.pending = append(r.pending, held{release: at, from: from, msg: msg})
	if len(r.pending) == 1 {
		r.wake <- at // pump is idle exactly when pending was empty
	}
}

// receive hands one message (nil = Init) to the consensus node, inside a
// core.receive span when tracing.
func (r *replica) receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if r.tr == nil {
		if msg == nil {
			r.node.Init(env)
		} else {
			r.node.Receive(env, from, msg)
		}
		return
	}
	t0 := r.now()
	r.tr.enter(r.self)
	if msg == nil {
		r.node.Init(env)
	} else {
		r.node.Receive(env, from, msg)
	}
	r.tr.exit(r.self, msg, t0, r.now())
}

// release delivers every parked message whose delay has passed and returns
// when the next one is due (zero when none is parked). Node goroutine only.
func (r *replica) release() time.Time {
	now := time.Now()
	i := 0
	for ; i < len(r.pending) && !r.pending[i].release.After(now); i++ {
		r.receive(r.env, r.pending[i].from, r.pending[i].msg)
		r.pending[i].msg = nil
	}
	r.pending = r.pending[i:]
	if len(r.pending) == 0 {
		r.pending = nil
		return time.Time{}
	}
	return r.pending[0].release
}

// pump is the delay goroutine of one replica: it sleeps until the oldest
// parked message is due and releases it on the node goroutine.
func (r *replica) pump(wg *sync.WaitGroup) {
	defer wg.Done()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		var next time.Time
		select {
		case <-r.stop:
			return
		case next = <-r.wake:
		}
		for !next.IsZero() {
			timer.Reset(time.Until(next))
			select {
			case <-r.stop:
				return
			case <-timer.C:
			}
			next = time.Time{}
			r.host.Inspect(func() { next = r.release() })
		}
	}
}

// tracedQueue wraps the queue on traced runs to time-stamp the moment a
// command leaves it for a vertex.
type tracedQueue struct{ r *replica }

func (q tracedQueue) NextBlock(round int) []string {
	block := q.r.queue.NextBlock(round)
	r := q.r
	r.blocks++
	r.blockTxs += len(block)
	t := r.now()
	for _, tx := range block {
		if origin, seq, ok := parseCmd(tx); ok && origin == int(r.self) && seq < len(r.proposed) {
			r.proposed[seq] = t
		}
	}
	return block
}

// submit queues one own command. Node goroutine only.
func (r *replica) submit(cmd string, due int64) {
	r.due = append(r.due, due)
	r.accepted = append(r.accepted, r.now())
	r.appliedAt = append(r.appliedAt, 0)
	r.round0 = append(r.round0, int32(r.node.Round()))
	r.round1 = append(r.round1, 0)
	if r.tr != nil {
		r.proposed = append(r.proposed, 0)
		r.applyStart = append(r.applyStart, 0)
	}
	r.queue.Submit(cmd)
}

// onDelivery is the core DeliverySink: apply, hash, check for duplicates
// and stamp own commands.
func (r *replica) onDelivery(d rider.Delivery) {
	var t0 int64
	if r.tr != nil {
		t0 = r.now()
	}
	own := r.ownScratch[:0]
	for _, tx := range d.Txs {
		r.kv.Apply(tx)
		r.sum.Write([]byte(tx))
		r.sum.Write([]byte{0})
		r.applied++
		if r.applied%checkpointTxs == 0 {
			var c [sha256.Size]byte
			r.sum.Sum(c[:0])
			r.checkpoints = append(r.checkpoints, c)
		}
		origin, seq, ok := parseCmd(tx)
		if !ok || origin >= len(r.seen) {
			r.dup = fmt.Sprintf("replica %d applied a malformed command %q", r.self, tx)
			continue
		}
		if !markSeen(&r.seen[origin], seq) {
			r.dup = fmt.Sprintf("replica %d applied command %d.%d twice", r.self, origin, seq)
		}
		if origin == int(r.self) && seq < len(r.appliedAt) {
			own = append(own, seq)
		}
	}
	t1 := r.now()
	if t1 >= r.winFrom && t1 < r.winTo {
		r.winApplied += len(d.Txs)
	}
	round := int32(r.node.Round())
	for _, seq := range own {
		r.appliedAt[seq] = t1
		r.round1[seq] = round
		if r.tr != nil {
			r.applyStart[seq] = t0
		}
	}
	r.ownScratch = own
	if r.tr != nil {
		r.tr.apply(r.self, t0, t1, len(d.Txs))
	}
}

func (r *replica) onCommit(ev rider.CommitEvent) {
	r.commits++
	r.decidedWave = ev.Wave
}

// markSeen sets bit seq and reports whether it was clear.
func markSeen(bits *[]uint64, seq int) bool {
	w := seq / 64
	for len(*bits) <= w {
		*bits = append(*bits, 0)
	}
	m := uint64(1) << (seq % 64)
	if (*bits)[w]&m != 0 {
		return false
	}
	(*bits)[w] |= m
	return true
}

// makeCmd builds the size-byte command number seq of replica origin.
func makeCmd(buf []byte, key, origin, seq, size int) string {
	buf = fmt.Appendf(buf[:0], "set k%04d %02d.%09d", key, origin, seq)
	for len(buf) < size {
		buf = append(buf, 'x')
	}
	return string(buf)
}

// parseCmd reads the origin and sequence back from a command header.
func parseCmd(tx string) (origin, seq int, ok bool) {
	if len(tx) < cmdHeader || tx[12] != '.' {
		return 0, 0, false
	}
	for _, c := range []byte(tx[10:12]) {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		origin = origin*10 + int(c-'0')
	}
	for _, c := range []byte(tx[13:cmdHeader]) {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	return origin, seq, true
}

// tcpCluster is one built, connected and started loopback cluster.
type tcpCluster struct {
	spec     *tcpSpec
	replicas []*replica
	lc       *transport.LocalCluster
	pumps    sync.WaitGroup
	connect  time.Duration
}

// buildTCP does everything that happens before the first command: build and
// compile the trust system, build the nodes, listen, connect the mesh and
// start the node loops.
func buildTCP(spec *tcpSpec, seed int64, tr *tracer) (*tcpCluster, error) {
	trust, err := spec.trust()
	if err != nil {
		return nil, fmt.Errorf("%s: trust system: %w", spec.name, err)
	}
	if sys, ok := trust.(*quorum.System); ok {
		sys.Evaluator()
	}
	c := &tcpCluster{spec: spec}
	n := trust.N()
	epoch := time.Now()
	prf := coin.NewPRF(seed, n)
	nodes := make([]sim.Node, n)
	for i := range nodes {
		r := newReplica(spec, trust, prf, n, epoch, tr)
		c.replicas = append(c.replicas, r)
		nodes[i] = r
	}
	t1 := time.Now()
	c.lc, err = transport.NewLocalCluster(nodes, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: cluster: %w", spec.name, err)
	}
	c.connect = time.Since(t1)
	for i, r := range c.replicas {
		r.host = c.lc.Hosts[i]
		if spec.delay > 0 {
			c.pumps.Add(1)
			go r.pump(&c.pumps)
		}
	}
	c.lc.Start()
	return c, nil
}

// close stops the pumps and the hosts and waits for both. The hosts close
// first: a pump may be inside Host.Inspect, which only a closed host is
// sure to return from.
func (c *tcpCluster) close() {
	for _, r := range c.replicas {
		close(r.stop)
	}
	c.lc.Close()
	c.pumps.Wait()
}

// tcpRun is what one measured pass over a TCP workload produced.
type tcpRun struct {
	window              time.Duration
	attempted, failed   int
	latencies           []float64 // ms, due -> applied, attempted commands that applied
	rounds              []float64 // rounds elapsed between submission and apply
	slowestApplied      int       // tx applied inside the window at the slowest replica
	cpu                 time.Duration
	stats               transport.HostStats
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcCPU               float64       // seconds
	passCPU, passWall   time.Duration // the whole pass, not just the window
	wavesPerCommit      float64
	late, inspectWait   []float64 // ms
	genBusy             time.Duration
	connect             time.Duration
	samples             []liveSample
	blocks, blockTxs    int
	queueWait, inflight []float64 // ms, traced runs only
}

// liveSample is one per-second look at every replica (traced runs only).
type liveSample struct {
	minRound, maxRound int
	live               core.LiveStats // field-wise maximum over replicas
}

// runTCP measures one pass: warm-up, a window of the given length, then a
// drain that keeps the load on until every attempted command has applied at
// its submitter or spec.drain has passed.
func runTCP(spec *tcpSpec, seed int64, window time.Duration, tr *tracer) (*tcpRun, error) {
	t0, cpu0 := time.Now(), processCPU()
	c, err := buildTCP(spec, seed, tr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	n := len(c.replicas)
	epoch := c.replicas[0].epoch
	nowNs := func() int64 { return int64(time.Since(epoch)) }

	winFrom := nowNs() + int64(warmup)
	winTo := winFrom + int64(window)
	for _, r := range c.replicas {
		r.host.Inspect(func() { r.winFrom, r.winTo = winFrom, winTo })
	}

	run := &tcpRun{window: window, connect: c.connect}
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, 0, spec.cmdBytes)
	nextSeq := make([]int, n)
	firstIn := make([]int, n) // first origin-local sequence inside the window
	lastIn := make([]int, n)  // one past the last
	for i := range firstIn {
		firstIn[i] = -1
	}
	submit := func(p int, due int64) {
		r := c.replicas[p]
		seq := nextSeq[p]
		nextSeq[p]++
		if due >= winFrom && due < winTo {
			if firstIn[p] < 0 {
				firstIn[p] = seq
			}
			lastIn[p] = seq + 1
		}
		r.submit(makeCmd(buf, rng.Intn(keySpace), p, seq, spec.cmdBytes), due)
	}

	var before, after snapshot
	started, ended := false, false
	start := nowNs()
	interval := int64(0)
	if spec.rate > 0 {
		interval = int64(time.Second) / int64(spec.rate)
	}
	issued := 0 // open loop: commands issued so far, command i is due at start+i*interval
	nextSample := winFrom
	deadline := winTo + int64(spec.drain)
	for {
		now := nowNs()
		if !started && now >= winFrom {
			before = takeSnapshot(c.lc)
			started = true
		}
		if !ended && now >= winTo {
			after = takeSnapshot(c.lc)
			ended = true
		}
		if ended && (now >= deadline || c.allApplied(firstIn, lastIn)) {
			break
		}
		if tr != nil && now >= nextSample && !ended {
			run.samples = append(run.samples, c.sample())
			nextSample += int64(time.Second)
		}
		busyFrom := time.Now()
		var waited time.Duration
		if spec.rate > 0 {
			// Open loop: hand every replica the commands that are due by now.
			dueUpTo := int((now-start)/interval) + 1
			for p := 0; p < n && issued < dueUpTo; p++ {
				first := issued
				for first%n != p {
					first++
				}
				if first >= dueUpTo {
					continue
				}
				t0 := time.Now()
				c.replicas[p].host.Inspect(func() {
					waited += time.Since(t0)
					run.inspectWait = append(run.inspectWait, ms(time.Since(t0)))
					for i := first; i < dueUpTo; i += n {
						due := start + int64(i)*interval
						run.late = append(run.late, float64(nowNs()-due)/1e6)
						submit(p, due)
					}
				})
			}
			issued = dueUpTo
			run.genBusy += time.Since(busyFrom) - waited
			time.Sleep(time.Duration(start + int64(issued)*interval - nowNs()))
		} else {
			// Closed loop: top every replica's queue back up to depth.
			for p := 0; p < n; p++ {
				t0 := time.Now()
				c.replicas[p].host.Inspect(func() {
					waited += time.Since(t0)
					run.inspectWait = append(run.inspectWait, ms(time.Since(t0)))
					for c.replicas[p].queue.Len() < spec.depth {
						submit(p, nowNs())
					}
				})
			}
			run.genBusy += time.Since(busyFrom) - waited
			time.Sleep(5 * time.Millisecond)
		}
	}

	run.cpu = after.cpu - before.cpu
	run.stats = diffStats(after.net, before.net)
	run.mallocs = after.mem.Mallocs - before.mem.Mallocs
	run.allocBytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	run.gcCycles = after.mem.NumGC - before.mem.NumGC
	run.gcCPU = after.gcCPU - before.gcCPU
	run.passCPU = processCPU() - cpu0
	run.passWall = time.Since(t0)
	if err := c.collect(run, firstIn, lastIn); err != nil {
		return nil, err
	}
	return run, nil
}

// allApplied reports whether every attempted command has applied at its
// submitter.
func (c *tcpCluster) allApplied(firstIn, lastIn []int) bool {
	done := true
	for p, r := range c.replicas {
		if firstIn[p] < 0 {
			continue
		}
		r.host.Inspect(func() {
			for seq := lastIn[p] - 1; seq >= firstIn[p]; seq-- {
				if r.appliedAt[seq] == 0 {
					done = false
					return
				}
			}
		})
		if !done {
			return false
		}
	}
	return true
}

// sample looks at every replica's round and live state.
func (c *tcpCluster) sample() liveSample {
	s := liveSample{minRound: int(^uint(0) >> 1)}
	for _, r := range c.replicas {
		r.host.Inspect(func() {
			round := r.node.Round()
			s.minRound = min(s.minRound, round)
			s.maxRound = max(s.maxRound, round)
			raiseLive(&s.live, r.node.Live())
		})
	}
	return s
}

// collect reads the replicas after the run, runs the oracle and fills in
// the per-command results.
func (c *tcpCluster) collect(run *tcpRun, firstIn, lastIn []int) error {
	var waves, commits int
	run.slowestApplied = -1
	for p, r := range c.replicas {
		var err error
		r.host.Inspect(func() {
			if r.dup != "" {
				err = fmt.Errorf("%s: %s", c.spec.name, r.dup)
				return
			}
			if run.slowestApplied < 0 || r.winApplied < run.slowestApplied {
				run.slowestApplied = r.winApplied
			}
			waves += r.decidedWave
			commits += r.commits
			run.blocks += r.blocks
			run.blockTxs += r.blockTxs
			if firstIn[p] < 0 {
				return
			}
			for seq := firstIn[p]; seq < lastIn[p]; seq++ {
				run.attempted++
				at := r.appliedAt[seq]
				if at == 0 || at-r.due[seq] > int64(c.spec.lateLimit) {
					run.failed++
					continue
				}
				run.latencies = append(run.latencies, float64(at-r.due[seq])/1e6)
				run.rounds = append(run.rounds, float64(r.round1[seq]-r.round0[seq]))
				if r.tr != nil {
					run.queueWait = append(run.queueWait, float64(r.proposed[seq]-r.accepted[seq])/1e6)
					run.inflight = append(run.inflight, float64(r.applyStart[seq]-r.proposed[seq])/1e6)
					r.tr.command(p, seq, r.due[seq], r.accepted[seq], r.proposed[seq], r.applyStart[seq], at)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	if commits > 0 {
		run.wavesPerCommit = float64(waves) / float64(commits)
	}
	return c.checkAgreement()
}

// checkAgreement is the total-order oracle: every pair of replicas must
// hold the same running hash at every checkpoint both reached.
func (c *tcpCluster) checkAgreement() error {
	sums := make([][][sha256.Size]byte, len(c.replicas))
	for p, r := range c.replicas {
		r.host.Inspect(func() { sums[p] = r.checkpoints })
	}
	return compareCheckpoints(c.spec.name, sums)
}

func compareCheckpoints(name string, sums [][][sha256.Size]byte) error {
	compared := 0
	for p := 1; p < len(sums); p++ {
		for i := 0; i < len(sums[0]) && i < len(sums[p]); i++ {
			compared++
			if sums[0][i] != sums[p][i] {
				return fmt.Errorf("%s: replicas 0 and %d disagree on the first %d applied transactions",
					name, p, (i+1)*checkpointTxs)
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("%s: no checkpoint was reached by two replicas, agreement unchecked", name)
	}
	return nil
}

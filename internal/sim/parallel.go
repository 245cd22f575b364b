package sim

import (
	"math/rand"
	"slices"

	"repro/internal/types"
)

// Parallel same-time delivery. ---------------------------------------------
//
// A fully asynchronous execution is a linearization of events by virtual
// time, but events that share a timestamp and go to *distinct* receivers
// touch disjoint node state: delivering them in either order produces the
// same node states, and only the order in which their *effects* (sends,
// broadcasts, metrics) are applied to the shared scheduler is observable.
// Parallel mode exploits exactly that window. One timestamp batch runs as:
//
//  1. Drain: every event at the frontier timestamp is popped (in (time,
//     seq) order — the frontier is one bucket of the event queue) and
//     partitioned by receiver, preserving per-receiver seq order.
//  2. Execute: each receiver's events run on a bounded worker pool, one
//     receiver at a time per worker, against a buffering Env — Send and
//     Broadcast only record (destination, message) intents; nothing
//     touches the queue, the RNG, the metrics or the sequence counter.
//  3. Commit: back on the driving goroutine, the buffered effects are
//     applied in ascending receiver-ID order (and, within a receiver, in
//     emission order). Latency draws, sequence numbers, drop-filter calls
//     and metrics counters all happen here, against the run's single
//     seeded RNG.
//
// Determinism contract: the batch content is a function of queue state,
// the per-receiver event order is the serial pop order, node state is
// touched only by the (single) worker executing that node, and every
// shared-state mutation happens in the fixed commit order. The observable
// execution — node states, Metrics including ByType, final virtual time —
// is therefore a pure function of the seed: byte-identical for 1, 2 or
// GOMAXPROCS delivery workers. It is *not* required to coincide with
// serial mode (commit order re-sequences the RNG draws within a
// timestamp), and in general it does not; serial mode remains the default
// and is what the single-heap differential tests pin.
//
// Randomness: Env.Rand hands out the run's single RNG stream, which
// cannot be shared by concurrent handlers. Any timestamp batch containing
// a receiver that has previously called Env.Rand is delivered serially
// (in pop order, exactly like serial mode delivers it), keeping flagged
// nodes on the master stream. The first-ever Rand call a node makes
// *inside* a concurrently executing handler cannot be known in advance;
// it is served from a private stream derived from (seed, timestamp,
// receiver) — still a pure function of the seed, still worker-count
// independent — and flags the node so every later timestamp it appears in
// runs serial. Nodes that randomize during Init (which always runs
// serially) are flagged before the first batch ever forms.
//
// Single-receiver batches take the serial path too: with no concurrency
// to exploit, direct execution against the real Env is byte-identical to
// buffer-and-commit and skips the buffering overhead.

// parEnv is the buffering Env handed to Receive handlers that execute
// concurrently. Only the worker that owns the receiver touches it during
// a batch; the driving goroutine drains it at commit.
type parEnv struct {
	r       *Runner
	self    types.ProcessID
	effects []effect
	rnd     *rand.Rand
}

// effect is one buffered Send or Broadcast intent.
type effect struct {
	to  types.ProcessID
	msg Message
	bc  bool
}

var _ Env = (*parEnv)(nil)

func (e *parEnv) Self() types.ProcessID { return e.self }
func (e *parEnv) N() int                { return e.r.cfg.N }
func (e *parEnv) Now() VirtualTime      { return e.r.now }

func (e *parEnv) Send(to types.ProcessID, msg Message) {
	e.effects = append(e.effects, effect{to: to, msg: msg})
}

func (e *parEnv) Broadcast(msg Message) {
	e.effects = append(e.effects, effect{bc: true, msg: msg})
}

// Rand serves a node's first-ever randomness demand inside a concurrent
// handler: a private stream derived from (seed, now, self), plus the
// sticky flag that forces the node's future timestamps serial. See the
// package comment above for why this is the only sound realization.
func (e *parEnv) Rand() *rand.Rand {
	if e.rnd == nil {
		e.r.randUsed[e.self] = true
		e.rnd = rand.New(rand.NewSource(deriveRandSeed(e.r.cfg.Seed, e.r.now, e.self)))
	}
	return e.rnd
}

// deriveRandSeed mixes (seed, at, self) through a splitmix64 finalizer so
// the derived stream is decorrelated from the master stream and from
// every other (timestamp, receiver) pair.
func deriveRandSeed(seed int64, at VirtualTime, self types.ProcessID) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z ^= uint64(at) * 0xbf58476d1ce4e5b9
	z ^= uint64(self) * 0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// stepBatch delivers every pending event at the frontier timestamp and
// returns how many were processed (0 on quiescence). Only called when
// cfg.DeliveryWorkers > 0.
func (r *Runner) stepBatch() int {
	r.init()
	if r.queue.Len() == 0 {
		return 0
	}
	t := r.queue.head().at
	r.now = t
	r.batch = r.batch[:0]
	for r.queue.Len() > 0 && r.queue.head().at == t {
		ev := r.queue.pop()
		if r.cfg.Fault != nil {
			// The delivery hook runs at the drain point, on the driving
			// goroutine, in pop order — the same deterministic commit
			// discipline as serial Step. A redelivered copy lands at a
			// strictly later timestamp, so it never joins this batch.
			r.maybeRedeliver(&ev)
		}
		r.batch = append(r.batch, ev)
	}
	n := len(r.batch)
	r.metrics.MessagesDelivered += n

	// Partition by receiver; per-receiver order is the pop (= seq) order.
	r.active = r.active[:0]
	serial := false
	for i := range r.batch {
		to := int(r.batch[i].to)
		if len(r.perRecv[to]) == 0 {
			r.active = append(r.active, to)
			if r.randUsed[to] {
				serial = true
			}
		}
		r.perRecv[to] = append(r.perRecv[to], r.batch[i])
	}

	if serial || len(r.active) == 1 {
		// Serial fallback: pop-order delivery against the real envs,
		// exactly what serial mode would do with this prefix of the queue.
		for _, to := range r.active {
			r.releaseRecv(to)
		}
		for i := range r.batch {
			e := &r.batch[i]
			r.nodes[e.to].Receive(&r.envs[e.to], e.from, e.msg)
			r.batch[i] = event{}
		}
		return n
	}
	slices.Sort(r.active) // commit order: ascending receiver ID

	workers := r.cfg.DeliveryWorkers
	if workers > len(r.active) {
		workers = len(r.active)
	}
	if workers == 1 {
		// One worker needs no goroutines: execute the receivers inline,
		// still against the buffering envs, so the observable behaviour
		// is byte-identical to the multi-worker path without its
		// synchronization overhead.
		for i := range r.active {
			r.runReceiver(i)
		}
	} else {
		// Persistent pool: wake the first `workers` pooled goroutines and
		// wait for the batch. Spawning per batch used to dominate small
		// batches (goroutine creation + stack setup per timestamp); the
		// pool pays one channel send and one WaitGroup Done per worker
		// per batch instead. Work distribution (the shared poolNext
		// counter) and the commit discipline are unchanged, so observable
		// behaviour stays byte-identical across worker counts.
		r.ensurePool()
		r.poolNext.Store(0)
		r.poolBatch.Add(workers)
		for w := 0; w < workers; w++ {
			r.poolWake[w] <- struct{}{}
		}
		r.poolBatch.Wait()
	}

	// Re-raise the panic of the smallest panicking receiver ID on the
	// driving goroutine — sweeps recover per-seed there, and picking the
	// smallest keeps the surfaced value worker-count independent.
	for i := range r.active {
		if v := r.panicVals[i]; v != nil {
			r.panicVals[i] = nil
			panic(v)
		}
	}

	// Commit: apply buffered effects in ascending receiver-ID order.
	for _, to := range r.active {
		pe := &r.parEnvs[to]
		for i := range pe.effects {
			ef := &pe.effects[i]
			if ef.bc {
				r.broadcast(pe.self, ef.msg)
			} else {
				r.send(pe.self, ef.to, ef.msg)
			}
			ef.msg = nil
		}
		pe.effects = pe.effects[:0]
		pe.rnd = nil
		r.releaseRecv(to)
	}
	for i := range r.batch {
		r.batch[i] = event{}
	}
	return n
}

// runReceiver executes all batch events of the idx-th active receiver
// against its buffering env, capturing a panic into its deterministic
// slot.
func (r *Runner) runReceiver(idx int) {
	defer func() {
		if v := recover(); v != nil {
			r.panicVals[idx] = v
		}
	}()
	to := r.active[idx]
	pe := &r.parEnvs[to]
	node := r.nodes[to]
	evs := r.perRecv[to]
	for i := range evs {
		node.Receive(pe, evs[i].from, evs[i].msg)
	}
}

// releaseRecv clears a receiver's batch slice, dropping its Message
// references while keeping the backing array for the next batch.
func (r *Runner) releaseRecv(to int) {
	evs := r.perRecv[to]
	for i := range evs {
		evs[i] = event{}
	}
	r.perRecv[to] = evs[:0]
}

// Persistent worker pool. --------------------------------------------------
//
// The pool's lifetime is one Run/RunUntil invocation: ensurePool starts it
// lazily at the first batch that needs more than one worker, and the
// deferred stopPool in Run/RunUntil tears it down (including on panic
// unwind) — so an abandoned Runner never leaks goroutines, and a sweep
// creating thousands of Runners holds pooled goroutines only for runs in
// flight.

// ensurePool starts the persistent worker pool if it is not running.
func (r *Runner) ensurePool() {
	if r.poolWake != nil {
		return
	}
	r.poolWake = make([]chan struct{}, r.cfg.DeliveryWorkers)
	r.poolExited.Add(len(r.poolWake))
	for w := range r.poolWake {
		ch := make(chan struct{}, 1)
		r.poolWake[w] = ch
		go r.poolWorker(ch)
	}
}

// poolWorker is one pooled delivery goroutine: each wake-up corresponds to
// exactly one batch (the per-worker channel guarantees a fast worker can't
// consume a second token), and channel close is the shutdown signal.
func (r *Runner) poolWorker(wake chan struct{}) {
	defer r.poolExited.Done()
	for range wake {
		for {
			i := int(r.poolNext.Add(1)) - 1
			if i >= len(r.active) {
				break
			}
			r.runReceiver(i)
		}
		r.poolBatch.Done()
	}
}

// stopPool shuts the pool down and waits for the workers to exit. The next
// multi-worker batch restarts it.
func (r *Runner) stopPool() {
	if r.poolWake == nil {
		return
	}
	for _, ch := range r.poolWake {
		close(ch)
	}
	r.poolExited.Wait()
	r.poolWake = nil
}

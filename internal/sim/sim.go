// Package sim provides a deterministic discrete-event simulator for
// asynchronous message-passing protocols.
//
// The paper's model (§2.1) is a fully asynchronous network of n processes
// connected by reliable authenticated point-to-point links, where an
// adversary controls message scheduling. This simulator realizes exactly
// that model: protocol nodes are deterministic state machines, the
// scheduler is a priority queue over virtual time, message delays come from
// a pluggable (possibly adversarial) latency model, and all randomness is
// drawn from a single seeded source — so every execution is reproducible
// from its seed. A node's Env offers no randomness: in the paper's model a
// process's only randomness is the common coin, which internal/coin
// provides to the protocols, and the run's RNG reaches only the latency
// model and the fault plane, so no node can perturb the schedule by
// drawing from it. The metrics count what
// crosses a link, as TCP does: a message sent to another process is priced
// by its codec encoding, and a self-send is free, so a multicast to all n
// processes counts n−1 sends.
//
// # Event queue
//
// The priority queue is a calendar queue (queue.go): a ring of 64 FIFO
// buckets, one per virtual instant of the window ahead of the clock, plus
// a small (time, seq) heap for events further out that move into their
// buckets as the window advances. Because seq is globally monotone,
// appending to an instant's FIFO keeps the (time, seq) order, so push and
// pop within the window cost O(1), and one bucket is exactly one same-time
// frontier. Bucket storage is recycled within the run. The pop sequence is
// byte-identical to a single global heap over the same total order —
// differential-tested and fuzzed against a retained copy of the 4-ary heap
// the simulator once used.
//
// The runner is one serial scheduler: it pops one event at a time and runs
// its Receive handler on the goroutine driving the run, so a run is a pure
// function of its seed and needs no locking. Parallelism lives one level
// up, in Sweep, which runs independent seeds on separate goroutines.
//
// # Fault injection
//
// Config.Fault installs a FaultPlane: an adversarial message-fault layer
// consulted at one point, OnSend, when a message's delivery is scheduled
// (per destination, in ascending order): whatever a link does to a
// message, it decides when the message is sent. The hook runs on the
// driving goroutine with the run's one seeded RNG, so every fault
// decision — drop, duplicate, extra delay, hold-until — is a pure
// function of the seed. Node-level faults compose separately as wrappers
// (MuteNode and the Byzantine wrappers in internal/scenario); wrappers
// implementing Unwrapper keep the inner protocol node observable to
// result collectors. A crash that recovers is no node fault: to every
// other process it looks like slow or lossy links, so internal/scenario
// makes churn a link rule on every link of the process. internal/scenario
// bundles both kinds into one Scenario — rules it compiles into a
// FaultPlane, node faults it applies as wrappers, and the Definition 4.1
// properties the run must preserve — which is the one adversary value the
// harness and gather runners take.
//
// # Sweep determinism contract
//
// Executions with different seeds are independent, and Sweep (sweep.go)
// runs them on GOMAXPROCS goroutines. The contract: a sweep's observable
// output is a pure function of the seed slice and the per-seed closure —
// never of GOMAXPROCS or of run completion order. Values and errors come
// back positioned by seed, a panic as its seed's *SeedPanic, so any
// aggregate a caller folds in seed order (statistics, first failing seed,
// ordered rows) is byte-identical at every GOMAXPROCS — which is what
// lets the randomized conformance suites fan out across cores while
// staying reproducible from a single integer. Concurrent seeds share
// package-level state and whatever immutable inputs the closure captures,
// so a handler must write neither: under `go test -race` (`make test`)
// every sweep test would report such a write.
package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"

	"repro/internal/types"
	"repro/internal/wire"
)

// VirtualTime is simulated time in abstract units.
type VirtualTime int64

// Message is a protocol message, which the simulator treats opaquely. A
// message is immutable once sent: a broadcast hands every receiver the same
// value, and a queued copy may outlive the sender's state for its slot. A
// struct whose only field is a pointer travels without boxing, so a hot
// message can point to a body the sender never writes again (broadcast's
// ECHO and READY do). Two checks hold handlers to it:
// TestDecodedCopiesChangeNoOutput reruns the recorded digests with every
// receiver handed its own decoded copy, which a write to a shared message
// would make differ, and TestConsensusOverTCP under `go test -race` reads
// one sent value on every peer's writer goroutine. A message sent to
// another process is priced by its codec encoding (internal/wire), or
// counted in Metrics.EncodeErrors if it has none; a self-send is free and
// needs no codec.
type Message any

// MessageSize returns the byte size a message sent to another process
// contributes to the metrics: the length of its encoding by the shared
// binary codec (internal/wire). A self-send is free, as on TCP, so
// simulated BytesSent figures equal the bytes the TCP transport puts on
// the wire for the same traffic. A message the codec cannot encode sizes
// as 0 bytes: the runner counts its send only in Metrics.EncodeErrors, as
// the TCP transport drops it uncounted.
func MessageSize(msg Message) int {
	bp := sizeBufPool.Get().(*[]byte)
	n, _ := msgSize(bp, msg)
	sizeBufPool.Put(bp)
	return n
}

// sizeBufPool recycles the buffers MessageSize encodes into.
var sizeBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Typer gives a message a stable label for code outside the runner; the
// runner's ByType buckets messages by dynamic Go type (the "%T" name), and
// a self-send, like the service layer's "service.tick", in no bucket.
type Typer interface {
	SimType() string
}

// Node is a deterministic protocol state machine. The simulator calls Init
// once before any delivery and Receive once per delivered message. Nodes
// must only interact with the world through the provided Env.
type Node interface {
	// Init runs before any message is delivered; nodes typically send
	// their first protocol messages here.
	Init(env Env)
	// Receive handles one message delivered from another node (or from
	// itself — self-sends are delivered through the network too, free).
	Receive(env Env, from types.ProcessID, msg Message)
}

// Env is a node's handle on the simulated world, valid only for the
// duration of the Init/Receive call it was passed to. It is the paper's
// model (§2.1) and nothing more: who the node is, how many processes
// there are, the clock, and a point-to-point link to each process. A send
// to many is one Multicast through it.
type Env interface {
	// Self returns the executing node's process ID.
	Self() types.ProcessID
	// N returns the number of processes.
	N() int
	// Now returns the current virtual time.
	Now() VirtualTime
	// Send enqueues msg for delivery to process `to` (self-sends allowed).
	Send(to types.ProcessID, msg Message)
}

// Cast is one multicast act: Msg to each process of To, in ID order, or
// to every process when To is nil (a broadcast, the sender's own copy
// included). Ref, when not nil, is a shorter form of Msg for the processes
// of RefTo, which already know what it leaves out: each of them other than
// the sender gets Ref instead. A self-send crosses no link, so it always
// carries Msg.
type Cast struct {
	To    []types.ProcessID
	Msg   Message
	Ref   Message
	RefTo types.Set
}

// For returns the message that process p gets from the act of sender self.
func (c *Cast) For(self, p types.ProcessID) Message {
	if c.byRef(self, p) {
		return c.Ref
	}
	return c.Msg
}

// byRef reports whether process p gets Ref from the act of sender self.
func (c *Cast) byRef(self, p types.ProcessID) bool {
	return c.Ref != nil && p != self && c.RefTo.Contains(p)
}

// Each calls f for each destination of the act among n processes, in
// order: every process of To, or every process 0..n−1 when To is nil.
func (c *Cast) Each(n int, f func(p types.ProcessID)) {
	if c.To == nil {
		for p := types.ProcessID(0); int(p) < n; p++ {
			f(p)
		}
		return
	}
	for _, p := range c.To {
		f(p)
	}
}

// Multicast sends the act c through env: an env that is a Multicaster
// receives the act whole, any other one env.Send per destination, in
// order. The protocols pass the audience of a vote,
// quorum.Assumption.Audience, which is nil whenever every process can
// count it, and a nil To for a broadcast.
func Multicast(env Env, c Cast) {
	if m, ok := env.(Multicaster); ok {
		m.Multicast(c)
		return
	}
	self := env.Self()
	c.Each(env.N(), func(p types.ProcessID) { env.Send(p, c.For(self, p)) })
}

// Multicaster is an Env that sees a Multicast as one act rather than as
// the Sends it makes. The simulator's Env implements it to price each
// form of an act once; the Byzantine wrappers of internal/scenario do, so
// that they equivocate, replay and filter a vote sent to its audience, in
// either form, as they do a broadcast. Its observable effect must be that
// of the Sends Multicast would make.
type Multicaster interface {
	Multicast(c Cast)
}

// LatencyModel decides the network delay of each message.
type LatencyModel interface {
	// Delay returns the link delay for a message sent now from -> to.
	// It must be >= 0.
	Delay(from, to types.ProcessID, msg Message, now VirtualTime, rng *rand.Rand) VirtualTime
}

// ConstantLatency delays every message by the same amount.
type ConstantLatency VirtualTime

// Delay implements LatencyModel.
func (c ConstantLatency) Delay(_, _ types.ProcessID, _ Message, _ VirtualTime, _ *rand.Rand) VirtualTime {
	return VirtualTime(c)
}

// UniformLatency delays messages uniformly in [Min, Max]. An inverted
// range (Max < Min) is normalized by swapping the bounds, so a transposed
// literal behaves like the range its author meant instead of silently
// collapsing every delay to Min and masking the misconfiguration.
type UniformLatency struct {
	Min, Max VirtualTime
}

// Delay implements LatencyModel.
func (u UniformLatency) Delay(_, _ types.ProcessID, _ Message, _ VirtualTime, rng *rand.Rand) VirtualTime {
	lo, hi := u.Min, u.Max
	if hi < lo {
		lo, hi = hi, lo
	}
	if hi == lo {
		return lo
	}
	return lo + VirtualTime(rng.Int63n(int64(hi-lo+1)))
}

// LatencyFunc adapts a function to a LatencyModel.
type LatencyFunc func(from, to types.ProcessID, msg Message, now VirtualTime, rng *rand.Rand) VirtualTime

// Delay implements LatencyModel.
func (f LatencyFunc) Delay(from, to types.ProcessID, msg Message, now VirtualTime, rng *rand.Rand) VirtualTime {
	return f(from, to, msg, now, rng)
}

// FavoredLinksLatency is the adversarial schedule used by the paper's
// Appendix A execution: messages along favored links (Favored[to] contains
// from) arrive with delay Fast, everything else with delay Slow. Choosing
// Favored[to] = to's canonical quorum makes every "received from one of my
// quorums" trigger fire on exactly that quorum.
type FavoredLinksLatency struct {
	Favored []types.Set // indexed by receiver
	Fast    VirtualTime
	Slow    VirtualTime
}

// Delay implements LatencyModel. A receiver outside the Favored slice (a
// nil slice, or an ID past its end — e.g. a model built for a smaller
// cluster) falls back to Slow: an unconfigured link is simply not
// favored, rather than an index panic deep inside a run.
func (f FavoredLinksLatency) Delay(from, to types.ProcessID, _ Message, _ VirtualTime, _ *rand.Rand) VirtualTime {
	if int(to) < len(f.Favored) && f.Favored[to].Contains(from) {
		return f.Fast
	}
	return f.Slow
}

// Fault plane. -------------------------------------------------------------

// FaultPlane is the scenario hook into the simulator's one commit point,
// where latency draws and sequence numbers are assigned. OnSend runs on
// the goroutine driving the run, so a fault plane may use the run's
// seeded RNG freely and the observable execution stays a pure function
// of the seed. Implementations must be deterministic: no time, no I/O,
// no private unseeded randomness. OnSend is called once per (from, to)
// destination — including self-delivery and each destination of a
// broadcast fan-out, in ascending destination order, exactly as n
// individual sends — and its verdict is final: a popped delivery goes
// to its receiver with no further fault decision.
type FaultPlane interface {
	// OnSend rules on one outbound message at the send-commit point.
	OnSend(from, to types.ProcessID, msg Message, now VirtualTime, rng *rand.Rand) SendVerdict
}

// SendVerdict is a FaultPlane's decision about one outbound message.
type SendVerdict struct {
	// Drop discards the message; it counts only as MessagesDropped —
	// never towards MessagesSent, BytesSent or ByType.
	Drop bool
	// Extra is added on top of the latency model's own draw (negative
	// values are clamped to 0). Partitions that heal are expressed as
	// Extra >= healTime - now: the message exists but arrives after the
	// heal, like a retransmitting transport.
	Extra VirtualTime
	// Duplicates enqueues that many extra copies of the message, each
	// with its own latency draw (plus the same Extra), so it may arrive
	// before or after the original. Every copy counts in Duplicated and,
	// as the original does, in MessagesSent.
	Duplicates int
}

// Config configures a Runner.
type Config struct {
	N       int
	Latency LatencyModel // defaults to ConstantLatency(1)
	Seed    int64

	// Fault, when non-nil, is the scenario fault plane: it is consulted
	// once per (from, to) message at the send-commit point (see
	// FaultPlane for the exact contract). The no-fault hot path pays
	// only a nil check.
	Fault FaultPlane
}

// Metrics accumulates network statistics for an execution.
type Metrics struct {
	// MessagesSent counts link sends, duplicate copies included; drops,
	// self-sends and unencodable sends are not counted.
	MessagesSent      int
	MessagesDelivered int // every popped event, self-sends included
	MessagesDropped   int // messages a fault plane discarded
	// Duplicated counts the extra copies a fault plane added, self-sends
	// included: the one counter that shows a message delivered twice.
	Duplicated int
	BytesSent  int // wire bytes of the sends MessagesSent counts
	// EncodeErrors counts sends to another process, one per destination,
	// of a message the wire codec cannot encode: over TCP each would be
	// dropped (transport.PeerStats.EncodeErrors). The scenario checker
	// requires it to be 0.
	EncodeErrors int
	ByType       map[string]int
}

func newMetrics() *Metrics {
	return &Metrics{ByType: map[string]int{}}
}

type event struct {
	at   VirtualTime
	seq  uint64
	to   types.ProcessID
	from types.ProcessID
	msg  Message
}

// eventLess is the scheduler's total order: (time, sequence). seq is
// globally unique and monotone, so no two events compare equal and the
// pop sequence of any correct priority structure over this key is fully
// determined.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Runner owns an execution: the nodes, the event queue, the clock, and
// the metrics. Everything — queue, clock, RNG, metrics, sequence numbers
// and every Init and Receive call — runs on the goroutine driving the run,
// one event at a time; determinism follows from the seeded RNG and the
// (time, sequence) total order on events.
type Runner struct {
	cfg     Config
	nodes   []Node
	queue   eventQueue
	now     VirtualTime
	seq     uint64
	rng     *rand.Rand
	metrics *Metrics
	inited  bool

	// envs holds one pre-built Env per process, reused for every Init and
	// Receive call. Boxing a fresh env value per delivered event used to be
	// the single largest allocator in message-heavy runs (one interface
	// allocation per delivery); the pool makes event delivery alloc-free.
	// Nodes must not retain an Env beyond the call (the Env contract), and
	// each env is immutable after construction, so reuse is safe.
	envs []env

	// sizeBuf is the buffer msgSize encodes every priced message into.
	sizeBuf []byte

	// typeCounts accumulates per-message-type counters keyed by dynamic
	// type; the string-keyed Metrics.ByType view is materialized lazily by
	// Metrics(). Formatting "%T" per send used to show up in profiles.
	typeCounts map[reflect.Type]*typeCounter
}

type typeCounter struct {
	name  string
	count int
}

// NewRunner creates a Runner for the given nodes. len(nodes) must equal
// cfg.N.
func NewRunner(cfg Config, nodes []Node) *Runner {
	if len(nodes) != cfg.N {
		panic(fmt.Sprintf("sim: %d nodes for N=%d", len(nodes), cfg.N))
	}
	if cfg.Latency == nil {
		cfg.Latency = ConstantLatency(1)
	}
	r := &Runner{
		cfg:        cfg,
		nodes:      nodes,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		metrics:    newMetrics(),
		envs:       make([]env, cfg.N),
		typeCounts: map[reflect.Type]*typeCounter{},
	}
	for i := range r.envs {
		r.envs[i] = env{r: r, self: types.ProcessID(i)}
	}
	return r
}

// env is the per-process Env implementation, pooled on the Runner.
type env struct {
	r    *Runner
	self types.ProcessID
}

var _ Multicaster = (*env)(nil)

func (e *env) Self() types.ProcessID { return e.self }
func (e *env) N() int                { return e.r.cfg.N }
func (e *env) Now() VirtualTime      { return e.r.now }

func (e *env) Send(to types.ProcessID, msg Message) {
	e.r.send(e.self, to, msg)
}

// Multicast implements Multicaster.
func (e *env) Multicast(c Cast) {
	e.r.multicast(e.self, &c)
}

// typeCounter returns the per-type metrics counter for msg, bucketed by
// dynamic type and created on first appearance.
func (r *Runner) typeCounter(msg Message) *typeCounter {
	t := reflect.TypeOf(msg)
	tc, ok := r.typeCounts[t]
	if !ok {
		tc = &typeCounter{name: fmt.Sprintf("%T", msg)}
		r.typeCounts[t] = tc
	}
	return tc
}

// msgSize returns the byte size a message sent to another process
// contributes to the metrics (see MessageSize), encoding it into *buf,
// which keeps the grown buffer, and whether the codec could encode it.
func msgSize(buf *[]byte, msg Message) (int, bool) {
	enc, err := wire.Append((*buf)[:0], msg)
	*buf = enc
	if err == nil {
		return len(enc), true
	}
	return 0, false
}

// price returns the type counter and wire size of msg sent to k other
// processes. If the codec cannot encode msg it counts k encode errors and
// returns a nil counter: as on TCP, such a send counts nowhere else.
func (r *Runner) price(msg Message, k int) (*typeCounter, int) {
	size, ok := msgSize(&r.sizeBuf, msg)
	if !ok {
		r.metrics.EncodeErrors += k
		return nil, 0
	}
	return r.typeCounter(msg), size
}

// sendOne records the sent-message metrics (against the caller-resolved
// type counter and size, a nil counter for a send that is not counted)
// and enqueues the delivery. Both unicast and multicast fan-out land here,
// so the accounting rules — and the fault plane's send-commit hook — live
// in one place. A self-send is free, but passes the fault plane and draws
// its delay like any send; so is an unencodable one, which is still
// delivered.
func (r *Runner) sendOne(from, to types.ProcessID, msg Message, tc *typeCounter, size int) {
	var extra VirtualTime
	copies := 1
	if r.cfg.Fault != nil {
		v := r.cfg.Fault.OnSend(from, to, msg, r.now, r.rng)
		if v.Drop {
			r.metrics.MessagesDropped++
			return
		}
		if v.Extra > 0 {
			extra = v.Extra
		}
		copies += v.Duplicates
		r.metrics.Duplicated += v.Duplicates
	}
	for i := 0; i < copies; i++ {
		if from != to && tc != nil {
			r.metrics.MessagesSent++
			tc.count++
			r.metrics.BytesSent += size
		}
		r.enqueue(from, to, msg, extra)
	}
}

func (r *Runner) send(from, to types.ProcessID, msg Message) {
	var tc *typeCounter
	size := 0
	if from != to {
		tc, size = r.price(msg, 1)
	}
	r.sendOne(from, to, msg, tc, size)
}

// multicast sends the act c of process from to each of its destinations
// in order. It prices each form once — Msg for its receivers other than
// the sender, Ref for the rest — since a multicast is the dominant send
// pattern of every protocol here and per-destination sizing used to show
// up in profiles. Delivery order and metrics stay byte-identical to one
// send per destination: the fault plane, the latency draw and the
// sequence number are still evaluated per destination, in order.
func (r *Runner) multicast(from types.ProcessID, c *Cast) {
	var kMsg, kRef int
	c.Each(r.cfg.N, func(p types.ProcessID) {
		if c.byRef(from, p) {
			kRef++
		} else if p != from {
			kMsg++
		}
	})
	var msgTC, refTC *typeCounter
	var msgBytes, refBytes int
	if kMsg > 0 {
		msgTC, msgBytes = r.price(c.Msg, kMsg)
	}
	if kRef > 0 {
		refTC, refBytes = r.price(c.Ref, kRef)
	}
	c.Each(r.cfg.N, func(p types.ProcessID) {
		if c.byRef(from, p) {
			r.sendOne(from, p, c.Ref, refTC, refBytes)
		} else {
			r.sendOne(from, p, c.Msg, msgTC, msgBytes)
		}
	})
}

// enqueue draws the link delay, adds the fault plane's extra delay, and
// pushes the delivery event.
func (r *Runner) enqueue(from, to types.ProcessID, msg Message, extra VirtualTime) {
	d := r.cfg.Latency.Delay(from, to, msg, r.now, r.rng)
	if d < 0 {
		d = 0
	}
	if decodeCopies && from != to {
		msg = decodedCopy(msg)
	}
	r.seq++
	r.queue.push(event{at: r.now + d + extra, seq: r.seq, to: to, from: from, msg: msg})
}

// decodeCopies makes the runner hand each receiver other than the sender
// a copy of the message decoded from its wire encoding, as TCP does,
// instead of the sender's value; a self-send and a message with no codec
// pass unchanged. It is not an option: only the package's tests set it
// (export_test.go), to check that a run's outputs do not depend on it. A
// handler that reads what a message's codec leaves out, or re-sends a
// body that arrived without it, behaves the same on shared values and
// differently on decoded copies.
var decodeCopies bool

// decodedCopy returns msg decoded from its wire encoding, or msg itself
// if the codec cannot encode it.
func decodedCopy(msg Message) Message {
	enc, err := wire.Marshal(msg)
	if err != nil {
		return msg
	}
	dec, _, err := wire.Decode(enc)
	if err != nil {
		panic(fmt.Sprintf("sim: %T does not decode from its own encoding: %v", msg, err))
	}
	return dec
}

// init calls Init on every node (in ID order) exactly once.
func (r *Runner) init() {
	if r.inited {
		return
	}
	r.inited = true
	for i, n := range r.nodes {
		n.Init(&r.envs[i])
	}
}

// Step delivers the next pending event. It returns false when the queue is
// empty (quiescence).
func (r *Runner) Step() bool {
	r.init()
	if r.queue.Len() == 0 {
		return false
	}
	e := r.queue.pop()
	r.now = e.at
	r.metrics.MessagesDelivered++
	r.nodes[e.to].Receive(&r.envs[e.to], e.from, e.msg)
	return true
}

// DefaultEventBudget is the event limit the protocol runners (gather,
// rider, the public Cluster) apply when their config leaves the
// budget field at 0 — roughly 10× what the largest legitimate run (n=100,
// a couple of waves, ~6M deliveries) needs, so hitting it signals a
// runaway schedule rather than truncating real work, while a
// non-quiescing schedule can no longer hang a sweep forever.
const DefaultEventBudget = 50_000_000

// ResolveEventBudget maps a config's budget field to a Run limit under
// the shared convention: 0 selects DefaultEventBudget, a negative value
// means unbounded (0 to Run), and a positive value is used as-is. A run
// was truncated by its budget iff the resolved limit is > 0 and events
// are still Pending afterwards.
func ResolveEventBudget(configured int) int {
	if configured == 0 {
		return DefaultEventBudget
	}
	if configured < 0 {
		return 0
	}
	return configured
}

// Run processes events until quiescence or until limit events have been
// delivered (limit <= 0 means no limit). It returns the number of events
// processed.
func (r *Runner) Run(limit int) int {
	processed := 0
	for limit <= 0 || processed < limit {
		if !r.Step() {
			break
		}
		processed++
	}
	return processed
}

// RunUntil processes events until pred() is true, quiescence, or the event
// limit; it reports whether pred became true. pred is evaluated after
// every event.
func (r *Runner) RunUntil(pred func() bool, limit int) bool {
	r.init()
	if pred() {
		return true
	}
	processed := 0
	for limit <= 0 || processed < limit {
		if !r.Step() {
			return pred()
		}
		processed++
		if pred() {
			return true
		}
	}
	return false
}

// Now returns the current virtual time.
func (r *Runner) Now() VirtualTime { return r.now }

// Pending returns the number of undelivered events.
func (r *Runner) Pending() int { return r.queue.Len() }

// Metrics returns the execution's accumulated metrics. The scalar counters
// on the returned struct stay live as the run proceeds; ByType is
// materialized from the per-type counters at each call, so callers that
// keep stepping the simulation should re-call Metrics() before reading
// ByType again.
func (r *Runner) Metrics() *Metrics {
	// Each counter writes its own ByType key, so map order cannot show.
	for _, tc := range r.typeCounts {
		r.metrics.ByType[tc.name] = tc.count
	}
	return r.metrics
}

// Node wrappers for fault injection. ------------------------------------

// Unwrapper is implemented by fault wrappers (the scenario package's
// Byzantine wrappers) that delegate to an inner protocol node. Result
// collectors unwrap through it so a wrapped node's observable protocol
// state is still reported.
type Unwrapper interface {
	Unwrap() Node
}

// Unwrap peels every fault wrapper off a node and returns the innermost
// protocol node.
func Unwrap(n Node) Node {
	for {
		u, ok := n.(Unwrapper)
		if !ok {
			return n
		}
		n = u.Unwrap()
	}
}

// MuteNode is a Byzantine node that participates in nothing: it never
// sends a message. It is the simplest adversary that still exercises the
// "faulty processes inside fail-prone sets" paths.
type MuteNode struct{}

var _ Node = MuteNode{}

// Init implements Node.
func (MuteNode) Init(Env) {}

// Receive implements Node.
func (MuteNode) Receive(Env, types.ProcessID, Message) {}

// Package asymdag is a from-scratch Go implementation of
// "DAG-based Consensus with Asymmetric Trust" (Amores-Sesar, Cachin,
// Villacis, Zanolini — PODC 2025, arXiv:2505.17891).
//
// It provides:
//
//   - Asymmetric Byzantine quorum systems: fail-prone systems, quorums,
//     kernels, the B3 existence condition, wise/naive classification and
//     guild computation (paper §2).
//   - The gather (common core) protocols of §3: the classic three-round
//     gather, the unsound quorum-replacement variant together with the
//     paper's 30-process counterexample (Lemma 3.2, Figures 1–4), Tusk's
//     two-round primitive (one quorum-merge node runs these three), the
//     novel constant-round asymmetric gather (Algorithm 3) and its binding
//     variant (one Algorithm 3 node runs both, the binding one with one
//     level more); their sets travel in one DISTRIBUTE message.
//   - The first asymmetric DAG-based atomic-broadcast protocol
//     (Algorithms 4–6), plus the symmetric DAG-Rider baseline, running
//     over a deterministic discrete-event network simulator with
//     adversarial scheduling and fault injection. Both protocols are one
//     DAG-Rider skeleton (internal/rider's Base: genesis, vertex validity,
//     buffering, quorum-predicate round advance, vertex creation, the
//     leader stack and ordering) under different rules. internal/core
//     adds the paper's quorum commit rule, the ACK/READY/CONFIRM gather
//     gating, the revealed coin and garbage collection; internal/baseline
//     adds DAG-Rider's 2f+1 commit rule under threshold trust.
//   - An incremental quorum-predicate engine (internal/quorum): explicit
//     systems compile into flattened bitset arrays with inverted indexes,
//     and every protocol tally holds an incremental tracker that answers
//     the HasQuorumWithin / HasKernelWithin triggers in O(1) amortized per
//     delivered message instead of re-scanning the quorum collection. See
//     internal/quorum/engine.go for the design and complexity bounds.
//   - A word-compiled analysis engine on the same evaluator: the
//     fail-prone system is flattened into popcount-ready words (sorted by
//     descending cardinality), so Validate (Definition 2.1), SatisfiesB3
//     (Definition 2.3), Tolerates and Wise run as word-parallel subset /
//     intersection sweeps with popcount pruning, and the batch
//     AnalyzeSystem API reports {valid, B3, c(Q), violation witness} in a
//     single pass per candidate system. Large random-system searches
//     (`experiments quorum -search`, the §3.2 small-system sweep) run on this
//     path. The naive set-loop references live in internal/quorum's tests,
//     differential-tested against the compiled forms on hundreds of
//     random systems per `go test ./...`.
//   - Pooled broadcast fan-out: the simulator delivers events through
//     pooled per-process Envs and a fan-out fast path that does
//     per-message bookkeeping once per broadcast — event delivery itself
//     is allocation-free, and the repository benchmark (bench/,
//     BENCHMARK.json) bounds allocs_per_tx so the reduction stays durable.
//     The gathers keep their S/T/U sets as a plain bitset plus values
//     (gather.Pairs), send a Clone at each quorum trigger, and buffer
//     early DISTRIBUTE sets in one arrival-ordered list with at most one
//     entry per sender.
//   - Digest-addressed reliable broadcast (internal/broadcast): a vertex
//     travels once per receiver, in the SEND, which also counts as its
//     source's ECHO and, toward a READY quorum only, as its READY, so the
//     source casts no vote in its own slot and nobody echoes to it. ECHO
//     and READY carry the 32-byte SHA-256 of its canonical wire frame,
//     computed once where the vertex is created or decoded, except where
//     the receiver can name the digest without them; then the vote goes
//     by reference, as its slot alone. An ECHO by reference goes to a
//     process whose ECHO for the digest the voter counted, and names the
//     digest that process echoed, since it echoes once per slot. A READY
//     by reference goes to the voter's whole audience once it echoed the
//     digest, and names the digest of the ECHO the receiver counted from
//     the voter (at the slot's source, its SEND's); one that overtakes
//     that ECHO waits for it, a bit per voter and slot. Over FIFO links, TCP's,
//     nothing waits, and no message count, delivery time or output moves;
//     only the 32 digest bytes go. On the simulator's uniform links a
//     waiting READY moves schedules a little (commit latency +1.2 % at
//     the median on Fig. 1). A process votes READY
//     and delivers only for a payload it holds, and one that sees a
//     quorum or kernel of votes before the payload fetches it from the
//     voters — under asymmetric trust one of the receiver's own quorums
//     or kernels, which for a wise process contains a correct holder, so
//     totality for the maximal guild is kept (the argument is in the
//     package comment).
//   - Votes go only to the processes that can count them: a process
//     counts an ECHO, a READY, a gather ACK/READY/CONFIRM or a coin share
//     only through its quorum and kernel predicates, which depend only on
//     the union of its quorums, so each vote goes to Assumption.Audience of
//     its sender (sim.Multicast). Under threshold trust that is everyone;
//     on the paper's Fig. 1 system a slot's votes of one kind cross at most
//     169 links instead of all 870 (quorum.VotePairs): its READYs 169 less
//     the source's audience, 163.4 on average, and its ECHOs less the
//     links into the source too, 157.7 on average.
//   - A parallel multi-seed sweep engine (internal/sim Sweep and
//     harness.SweepRider/SweepGather): independent seeded executions run
//     on GOMAXPROCS goroutines and come back positioned by seed, with a
//     panic returned as its seed's error, so a fold in seed order gives
//     the same aggregate at every GOMAXPROCS. It powers the
//     randomized protocol-property conformance suites (hundreds of random
//     trust systems per `go test ./...`), the multi-seed experiments, and
//     the `experiments rider` and `experiments quorum -search` sweeps.
//   - A deterministic serial scheduler over a calendar event queue
//     (internal/sim): the runner files each event in a FIFO bucket for
//     its virtual instant (a ring of 64 instants ahead of the clock, with
//     a small heap for events further out), so push and pop cost O(1);
//     bucket segments are recycled within a run. It delivers one event at
//     a time on the goroutine driving the run, in the (time, sequence)
//     order of the original single 4-ary heap, which a differential suite
//     and a fuzz target pin. Parallelism is across seeds (the sweep
//     engine above), never inside a run.
//     Every consensus run, Cluster's included, is also bounded by a
//     generous event budget (RiderResult.HitLimit reports truncation), so
//     a non-quiescing adversarial schedule can no longer hang a sweep.
//   - A declarative adversarial scenario engine (internal/scenario + the
//     harness scenario sweeps): scenarios compose timed link-fault rules
//     (drop, duplicate, extra delay, hold-until healing partitions) with
//     per-process faults (mute as a node that sends nothing; selective
//     send, stale replay and equivocation as one Byzantine wrapper that
//     hooks the real node's sends, on any Env; crash-recover churn as a
//     rule that holds or drops every message on one process's links
//     during its outage), and declare the Definition 4.1
//     properties — total order, agreement, integrity, validity, liveness —
//     each run must keep for the maximal guild of the scenario's faulty
//     set. Rules compile into a sim.FaultPlane evaluated at the
//     simulator's send-commit point with the run's seeded RNG, so every
//     scenario execution is a pure function of the seed. A
//     Scenario is a run's whole adversary: RiderConfig and GatherConfig
//     take one (nil = every process correct), and a muted or custom
//     Byzantine process is one of its node faults (MuteFault, ChurnFault).
//     harness.CheckScenarioProperties is the one Definition 4.1 checker:
//     it takes the faulty set from the run's Scenario, computes the
//     maximal guild under explicit or threshold trust, and reports a run
//     with an empty guild as Vacuous, which sweeps count. A registry of
//     built-in scenarios backs the scenario × seed conformance sweeps
//     (with first-failing (scenario, seed) attribution) and the
//     `scenarios` experiment; ExampleRunConsensus composes a custom one.
//   - A shared framed binary wire codec (internal/wire) and a production
//     TCP transport (internal/transport): every protocol message type
//     registers a tagged codec built on canonical uvarints, length-
//     prefixed strings and the raw bitset words types.Set already
//     carries; reliable broadcast has seven (SEND, ECHO, READY, ECHO and
//     READY by reference, FETCH and its reply) plus broadcast.Bytes. A
//     vertex names its strong edges, which all point into the previous
//     round, as a bitmap of their sources (5 bytes on Fig. 1's 30
//     processes, against ≈56 as [source][round] refs), and a vertex whose
//     strong edges are not distinct ascending sources in that round has
//     no wire form. The
//     simulator prices a message sent to another process by that encoding
//     (sim.MessageSize) and a self-send at nothing, as TCP does, and counts
//     a send it cannot encode only as an encode error, as TCP drops it, so
//     its byte metrics equal the bytes a real deployment sends by
//     construction. The
//     transport drains bounded per-peer outboxes into batched length-
//     prefixed frames (one write syscall per drain); a full outbox blocks
//     the sending node loop — explicit backpressure, never drops or
//     unbounded growth — connections are validated and deduplicated
//     keep-first at registration, and a failed write re-queues the unsent
//     tail so a reconnect resumes the stream without loss. Per-peer
//     counters surface frames/messages/bytes and error/re-queue counts;
//     `make transportbench` runs the race-checked suite plus the 50-node
//     loopback mesh benchmark (msgs/s, bytes/s).
//   - A long-lived replicated service mode (internal/service, public
//     ServiceConfig/RunService): instead of running N waves and stopping,
//     replicas run indefinitely — an admission-bounded client request
//     queue batches transactions into block payloads, wave proposal is
//     pipelined a bounded depth ahead of decisions, DAG garbage
//     collection is mandatory (the round window, broadcast slot trackers
//     and coin shares all prune below the decided horizon, so memory is
//     bounded for an unbounded run — a 500-wave rolling-churn soak pins
//     the live counters flat), and every few decided waves the replica
//     snapshots its StateMachine and compacts the applied log. Total
//     order makes snapshots byte-identical across replicas at every
//     shared decided wave (CheckServiceSnapshots verifies; a 100-seed
//     equivalence suite also replays the full log against each
//     snapshot). BenchmarkServiceSustained reports sustained msgs/s,
//     commits/s and commit-latency percentiles; ExampleRunService is
//     the runnable flagship, riding out rolling churn with
//     byte-identical snapshots.
//
// # Checked at run time
//
// The repository's contracts are checked by running the code; there is
// no custom static analyzer.
//
//   - Determinism: harness's TestSameSeedIdenticalMetrics,
//     TestExpBatchingDeterministic and TestRiderRunsMatchRecordedDigests
//     run each protocol, gather kind, experiment and the service twice or
//     against recorded digests.
//   - Bounded memory: service's TestServiceBoundedMemorySoak (150 waves,
//     500 under `make soak`) requires every core.LiveStats counter flat.
//   - A handler never writes a delivered message or package-level
//     state: sim's TestDecodedCopiesChangeNoOutput reruns the recorded
//     rider, gather and service digests with each receiver handed its
//     own decoded copy, which a write to a shared message would make
//     differ; `make test` runs every sim.Sweep test under `go test
//     -race`, where concurrent seeds would race on package-level state;
//     and transport's TestConsensusOverTCP, also under -race, reads one
//     sent value on every peer's writer goroutine.
//   - The examples: `go test` runs each Example function in this package
//     and compares its output with its Output block.
//   - Every message sent to another process has a codec (a self-send
//     needs none): the simulator counts one it cannot encode in
//     sim.Metrics.EncodeErrors, as TCP does in PeerStats.EncodeErrors; the
//     scenario checker, the service soak and TestConsensusOverTCP require
//     zero.
//   - Sweeps do not depend on GOMAXPROCS: `make test` runs the Example
//     functions and cmd/experiments' TestExperimentsOutputDigest (the
//     SHA-256 of every experiment's output) under GOMAXPROCS=1, 2 and 4.
//
// # Quickstart
//
// ExampleNewCluster submits transactions to a 4-process cluster and
// prints the log every process agrees on. The other Example functions show
// the Appendix A counterexample, federated trust, the fault model and the
// replicated service. See cmd/experiments for the paper-reproduction
// harness (-list prints the experiment index) and its rider, gather and
// quorum subcommands, and bench/README.md for the repository
// benchmark and its metrics.
package asymdag

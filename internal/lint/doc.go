// Package lint implements the repository's custom static analyzers: a
// small go/analysis-style framework (self-contained — built on the
// standard library's go/ast, go/types and `go list -export`, because the
// build environment vendors no external modules), a lightweight
// interprocedural dataflow layer, and three analyzers that turn the
// repository's wire-codec and parallel-delivery contracts into
// compile-time checks. The cmd/asymvet multichecker runs them tree-wide;
// `make lint` (folded into `make test`) gates every branch on a clean pass.
//
// # Static contracts
//
// asymwire — every message a node hands to sim.Env.Send or
// sim.Env.Broadcast (the transport's hostEnv implements the same
// interface, so the TCP send surface is covered by the same rule) must
// have an internal/wire.Register codec: that registration is what makes
// sim.MessageSize report real wire bytes and what lets the message cross
// the TCP transport at all. The analyzer resolves the concrete static
// type of every sent message (interface-typed arguments are checked at
// their own construction sites) and verifies a matching wire.Register
// call exists somewhere in the tree — through one level of helper
// indirection, so the registerDigestMsg/registerWaveMsg-style loops in the
// protocol packages resolve. It also checks every registration's tag
// against the central tag-range table (wire.TagRanges): a package
// claiming a tag outside its assigned range, or a non-test package
// claiming a tag in the test-reserved range (>= wire.TestTagFloor), is
// flagged.
//
// asymsizer — a type implementing both sim.Sizer and a registered wire
// codec is flagged: sim.MessageSize always prefers the codec, so the
// SimSize method is either dead code that will silently diverge from the
// real encoding, or a deliberate fallback for messages whose codec can
// fail to encode (nested dynamic payloads). The deliberate case is
// annotated.
//
// asymshare — under the simulator's parallel same-time delivery
// (DeliveryWorkers > 1), every receiver of a broadcast is handed the
// SAME message value, and handlers for different processes run
// concurrently. The analyzer roots at every `Receive(env sim.Env, from,
// msg)` method in DeterministicPkgs, follows the static call graph, and
// flags writes through message-reachable memory (the gather.Pairs
// shared-backing bug class) and writes to package-level variables on any
// Receive-reachable path. Receiver fields, fresh locals, sync/atomic, the
// buffering Env commit path and the copy-before-mutate idiom
// `append([]T(nil), shared...)` count as confinement.
//
// # Checked at run time
//
// Determinism and bounded memory are checked by running the code. Every
// bug their former analyzers (asymdeterminism, asymgc) were pinned
// against fails a test, and a test also fails on a missing revealed-coin
// prune that asymgc could not see.
//
//   - Determinism: harness's TestSameSeedIdenticalMetrics runs the
//     symmetric baseline, the asymmetric protocol on a threshold system
//     and on Fig. 1 with the revealed coin and GC, each gather kind, and
//     the service under partition-heal twice each, and requires identical
//     deliveries, commits, Metrics with ByType, end time and snapshot
//     bytes. TestExpBatchingDeterministic runs every fast experiment
//     twice, and TestRiderRunsMatchRecordedDigests pins delivery and
//     commit sequences to recorded digests. A wall-clock read, a global
//     random draw or a map order that reaches state, sends, metrics or
//     output fails one of them.
//   - Bounded memory: service's TestServiceBoundedMemorySoak runs 150
//     waves (500 under `make soak`) with the PRF coin and with the
//     revealed coin, and requires every core.LiveStats counter to stay
//     flat after warm-up.
//
// # The dataflow layer
//
// asymshare is interprocedural: it consumes per-function summaries
// (dataflow.go) computed bottom-up over the whole load to a fixed point,
// so facts flow through arbitrarily deep call chains and recursion. One
// summary (flowFacts) records, per function:
//
//   - MutParams/MutRecv: parameters (and the receiver) whose referenced
//     memory the function writes through, directly or transitively —
//     what lets asymshare attribute `scribble(m.Data)` to the call site
//     that passed shared memory in;
//   - Calls: the statically resolved callee keys, the edges reachability
//     walks.
//
// The analysis is deliberately approximate, tuned so the audited tree is
// clean without annotation noise. Documented imprecisions: interface
// dispatch and function values have no callee summary (dynamic-dispatch-
// blind); call results are fresh memory for aliasing; append() aliases
// only its first argument, which is what makes the copy idiom clean.
// These choices trade missed exotic flows for a zero-false-positive gate;
// the fixture suites under testdata/ pin both directions.
//
// # Annotations
//
// Suppressions are line comments of the form
//
//	//lint:<name> <free-text reason>
//
// placed on the flagged line, on the line immediately above it, or (for
// declarations) anywhere in the doc comment. The reason is the
// reviewable record of why the suppression is sound. Names:
//
//	//lint:unwired         this message type deliberately has no wire
//	                       codec (on the type declaration or the send
//	                       site); it must never cross the TCP transport
//	//lint:sizer-fallback  this SimSize is a deliberate approximation for
//	                       when the codec reports unencodable
//	//lint:confined        this Receive-reachable memory is not actually
//	                       shared (on the write); say why
//
// Each name belongs to one analyzer (Analyzer.Directive), so deleting an
// analyzer retires its directive: Run reports any other //lint: name in
// every package. A //lint:confined that suppresses nothing is reported
// too (unused suppressions rot).
//
// # Running
//
// `make lint` runs cmd/asymvet over ./... alongside stock `go vet`. The
// driver is standalone rather than a `go vet -vettool` plugin: the
// vettool protocol needs golang.org/x/tools/go/analysis/unitchecker,
// which this build environment cannot vendor, so asymvet loads packages
// itself via `go list -export -json -deps` and type-checks from source
// against the build cache's export data. Test files are not analyzed;
// the contracts gate shipped code.
//
// Decoders of wire input are not analyzed statically: an attacker-chosen
// count reaching an allocation is caught at run time instead, by the
// allocation bound internal/transport's FuzzDecodeBatch checks on every
// registered codec.
package lint

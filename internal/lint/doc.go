// Package lint implements the repository's custom static analyzers: a
// small go/analysis-style framework (self-contained — built on the
// standard library's go/ast, go/types and `go list -export`, because the
// build environment vendors no external modules) and two analyzers that
// turn the repository's wire-codec contracts into compile-time checks.
// The cmd/asymvet multichecker runs them tree-wide; `make lint` (folded
// into `make test`) gates every branch on a clean pass.
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
// protocol packages resolve.
//
// asymsizer — a type implementing both sim.Sizer and a registered wire
// codec is flagged: sim.MessageSize always prefers the codec, so the
// SimSize method is either dead code that will silently diverge from the
// real encoding, or a deliberate fallback for messages whose codec can
// fail to encode (nested dynamic payloads). The deliberate case is
// annotated.
//
// # Checked at run time
//
// Determinism, bounded memory, confinement under parallel delivery and
// tag ranges are checked by running the code. Every bug their former
// analyzers (asymdeterminism, asymgc, asymshare, asymwire's tag check)
// were pinned against fails a test, and tests also fail on bugs those
// analyzers missed: a missing revealed-coin prune, and shared writes
// through a callee, an interface call or a vote body.
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
//   - No shared writes under parallel delivery: with DeliveryWorkers > 1
//     every receiver of a broadcast is handed the same message value and
//     handlers of different processes run concurrently, so a handler
//     must not write through message memory or to a package-level
//     variable. `make test` runs the suite under `go test -race`, and
//     five tests drive the protocol stack through parallel delivery:
//     TestClusterParallelDeliveryDeterministic (the root package),
//     TestRiderParallelDeliveryDeterministic (both node kinds),
//     TestRandomizedParallelDeliveryConformance and
//     TestScenarioWorkerCountDeterminism (internal/harness), and
//     TestServiceDeterministicAcrossWorkers (internal/service). The race
//     detector reports such a write wherever it happens, through any
//     chain of calls.
//   - Tag ranges: wire.Register panics on a tag outside the
//     wire.TagRanges row of the package declaring the registered type,
//     and on a test-reserved tag outside a test binary, so every binary
//     that links a misnumbered codec fails at init.
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
//
// Each name belongs to one analyzer (Analyzer.Directive), so deleting an
// analyzer retires its directive: Run reports any other //lint: name in
// every package.
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

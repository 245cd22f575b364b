// Package lint implements the repository's custom static analyzers: a
// small go/analysis-style framework (self-contained — built on the
// standard library's go/ast, go/types and `go list -export`, because the
// build environment vendors no external modules), a lightweight
// interprocedural dataflow layer, and five analyzers that turn the
// repository's dynamic determinism, wire-codec, parallel-delivery, and
// bounded-memory contracts into compile-time checks. The cmd/asymvet multichecker runs them tree-wide; `make lint`
// (folded into `make test`) gates every branch on a clean pass.
//
// # Static contracts
//
// The repository's core guarantee is dynamic twice over: reproduction
// runs are byte-identical across seeds and DeliveryWorkers counts, and
// simulated byte metrics equal real wire bytes. Differential tests
// enforce both, but only along the executions a seed happens to reach.
// The analyzers here enforce the underlying source-level contracts on
// every line, in every branch:
//
// asymdeterminism — the deterministic packages (sim, dag, gather,
// broadcast, coin, rider, core, scenario, service, harness, baseline,
// and the repro root package) must be pure functions
// of their seeds. The analyzer flags
//
//   - wall-clock reads (time.Now, time.Since, timers, sleeps);
//   - the global math/rand and math/rand/v2 source (rand.Intn, rand.Perm,
//     rand.Shuffle, ... — constructing a seeded *rand.Rand via rand.New /
//     rand.NewSource, and every method on it, is fine: that is exactly the
//     Env.Rand / run-RNG discipline the simulator prescribes);
//   - `for range` over a map, whose iteration order is runtime-randomized
//     and can leak into protocol state, sends, metrics or encoded output.
//
// Map ranges are accepted without annotation when the loop body is one of
// the recognized order-insensitive idioms:
//
//   - sorted-collect: the body is a single `s = append(s, k)` (or the
//     value), and s is passed to a sort.* / slices.Sort* call later in
//     the same function;
//   - prune: the body is `delete(m, k)`, optionally guarded by a
//     call-free `if` condition, deleting from the ranged map at the key;
//   - disjoint-slot writes: every statement assigns through an index
//     expression whose index is exactly the range key (`dst[k] = ...`),
//     so distinct keys touch distinct slots;
//   - commutative folds: every statement is an integer `++`/`--`, a
//     commutative compound assignment (`+=`, `-=`, `|=`, `^=`, `&=`) on a
//     non-float, non-string lvalue, or such a compound assignment through
//     a map index (`acc[k] += v`).
//
// Everything else needs an explicit annotation (see below) stating why
// order cannot escape — or a fix that sorts the keys first.
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
// real encoding (the "modeled cost = real cost" regression PR 7 closed),
// or a deliberate fallback for messages whose codec can report
// unencodable (nested dynamic payloads). The deliberate case is
// annotated.
//
// asymshare — under the simulator's parallel same-time delivery
// (DeliveryWorkers > 1), every receiver of a broadcast is handed the
// SAME message value, and handlers for different processes run
// concurrently. Any state reachable from a protocol Receive handler
// must therefore be per-process-confined (receiver fields, fresh local
// memory), synchronized (sync/atomic), or flow through the buffering
// Env commit path (Send/Broadcast copy on encode). The analyzer roots
// at every `Receive(env sim.Env, from, msg)` method in the
// deterministic packages, follows the static call graph, and flags
// writes through message-reachable memory (the gather.Pairs
// shared-backing bug class) and writes to package-level variables on
// any Receive-reachable path. The copy-before-mutate idiom
// `append([]T(nil), shared...)` is recognized as confinement.
//
// asymgc — protocol state keyed or indexed by a monotonically advancing
// coordinate (round, wave, sequence number, slot) grows for the
// lifetime of the node unless something prunes it; PR 8's bounded-memory
// mode depends on every such structure having a GC path. In the
// GC-audited packages (dag, gather, broadcast, coin, rider, core,
// service, baseline), any struct field that is a map
// keyed by an integer coordinate (or by a struct with a round/wave/seq/
// slot-named integer field — ProcessID keys are exempt, the process
// universe is fixed) or a slice whose name says it accumulates
// per-coordinate data (…Log, …History, deliver…, tail…, buffer…) must
// have a prune site somewhere in the program: a delete() or clear() of
// the field, or a shrinking reassignment (reslice, nil, keep-slice
// rebuild). Constructor initialization (make, composite literal) and
// append-to-self do not count.
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
// declarations) anywhere in the doc comment. The reason text is
// mandatory in spirit — it is the reviewable record of why the
// suppression is sound — but not enforced. Names:
//
//	//lint:ordered         this map range is order-insensitive
//	//lint:unwired         this message type deliberately has no wire
//	                       codec (placed on the type declaration or the
//	                       send site); it must never cross the TCP
//	                       transport
//	//lint:sizer-fallback  this SimSize is a deliberate approximation for
//	                       when the codec reports unencodable
//	//lint:confined        this Receive-reachable memory is not actually
//	                       shared (placed on the write); say why
//	//lint:retained        this coordinate-keyed field is deliberately
//	                       unpruned (placed on the field declaration);
//	                       say what bounds it
//
// Each name belongs to one analyzer (Analyzer.Directive), and the list of
// known names is derived from the live suite, so deleting an analyzer
// retires its directive. An annotation on a line where its analyzer
// finds nothing to suppress is itself reported (unused suppressions rot),
// as is any //lint: name outside this list.
//
// # Running
//
// `make lint` builds cmd/asymvet and runs it over ./...; `make test`
// runs it alongside stock `go vet`. The driver is standalone rather
// than a `go vet -vettool` plugin: the vettool protocol needs
// golang.org/x/tools/go/analysis/unitchecker, which this build
// environment cannot vendor, so asymvet loads packages itself via
// `go list -export -json -deps` and type-checks from source against the
// build cache's export data. Test files are not analyzed (test-local
// message types and deliberately adversarial iteration live there); the
// contracts gate shipped code. Every run loads and analyzes the whole
// program (about a third of a second for ./...).
//
// Decoders of wire input are not analyzed statically: an attacker-chosen
// count reaching an allocation is caught at run time instead, by the
// allocation bound internal/transport's FuzzDecodeBatch checks on every
// registered codec.
package lint

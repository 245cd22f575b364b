# Build/test/benchmark entry points. Performance is judged by the
# benchmark BENCHMARK.json declares (`make benchmark`, the nested bench/
# module); bench_test.go holds micro-benchmarks to run ad hoc with
# `go test -bench`.

GO ?= go

.PHONY: all build test vet fuzz flaky benchmark benchcheck compare transportbench search scenarios soak loc

# (test already vets, so all doesn't list vet separately)
all: build test

build:
	$(GO) build ./...

# vet + race detector: the sweep engine runs seeds on concurrent
# goroutines, and the randomized conformance suites exercise it on every
# run, so a protocol handler, fault plane or node wrapper that writes
# package-level state is reported here; TestConsensusOverTCP reports a
# handler that writes a message it sent (the root package comment's
# "Checked at run time" list names these checks). The scenario registry
# sweep rides along so `make test` always exercises the adversarial
# scenarios end to end; its checker also requires that no run sent a
# message without a wire codec. bench/ is a nested module that `./...`
# does not reach, so its own tests run here too (≈17 s; they leave no
# files; vet vets it): a root refactor can otherwise break one of the
# benchmark's run-time checks (the tick-to-command check, say)
# unnoticed. The examples and the digest of every
# experiment's output run again at GOMAXPROCS 1, 2 and 4: sweeps fan out
# over GOMAXPROCS goroutines, and their output must not depend on how
# many. (The environment variable, not -cpu: go test runs examples once,
# whatever -cpu lists.)
test: scenarios vet
	$(GO) test -race ./...
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) test -count=1 -run '^(Example|TestExperimentsOutputDigest)' . ./cmd/experiments || exit 1; \
	done
	cd bench && $(GO) test .

# Coverage-guided fuzzing of the byte-level attack surface: the wire
# bounded-decode primitives, the tagged top-level decoder, and the
# transport frame reader / hello parser / batch-body walker (which also
# bounds the bytes every registered codec allocates per input byte); plus the
# dense-row DAG queries on random DAGs against their map-based reference,
# and the simulator's event queue against the heap it replaced.
# Each target's seed corpus also runs as a plain test in `make test`;
# FUZZTIME bounds each target here. FuzzDecodeBatch also bounds input
# minimization: its corpus holds a 128 KiB Pairs frame that takes
# milliseconds to decode, and minimizing its descendants for the default
# minute would stall the fuzzer.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzReadPrimitives$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport -run='^$$' -fuzz='^FuzzParseHello$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport -run='^$$' -fuzz='^FuzzDecodeBatch$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=200x
	$(GO) test ./internal/rider -run='^$$' -fuzz='^FuzzDAGQueries$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sim -run='^$$' -fuzz='^FuzzEventQueue$$' -fuzztime=$(FUZZTIME)

# Repeat, under the race detector, the tests of the two places a rare
# interleaving once broke: the duplicate-dial race in transport.Connect
# (TestDoubleDialDeduplicated failed 1–3% of runs) and reliable
# broadcast's hold-before-READY and fetch rules; plus the buffers shared
# across goroutines without a copy: the alternating outbox arrays and the
# carved chunks the connection readers decode votes and SENDs into, and
# the vote bodies a Reliable forwards in its READYs and FETCHes (which,
# TestReadyReusesTriggerBody pins): over TCP (TestConsensusOverTCP) one
# body decoded on a reader goroutine is read by every peer's writer.
FLAKY_COUNT ?= 50
flaky:
	$(GO) test -race -count=$(FLAKY_COUNT) -run 'TestDoubleDial|TestReliable|TestReadyReusesTriggerBody|TestConsensusOverTCP|TestOutboxReusesBuffers|TestDecodedVotesSurviveLaterDecodes|TestDecodedSendsSurviveLaterDecodes|TestCarverHandsOutEachBodyOnce' ./internal/transport ./internal/broadcast ./internal/wire

# Sweep every built-in adversarial scenario (internal/scenario) over a few
# seeds and check each one's declared Definition 4.1 properties; bounded to
# a few seconds.
scenarios:
	$(GO) run ./cmd/experiments -run scenarios

# go vet, of bench/ too (a nested module `./...` does not reach, which
# builds against the root packages, so a root change that deletes a name
# it uses fails here), then gofmt over the whole tree, bench/ included:
# any file gofmt would change is listed and fails the target.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet .
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# The repository benchmark: all four BENCHMARK.json workloads, each in its
# own process and ending in one JSON line of end-to-end metrics (see
# bench/README.md for the flags, workloads and metric names).
benchmark:
	$(GO) run -C bench . -workload all

# Paired comparison of the benchmark (cmd/benchcompare): BASE and CHANGE
# (default: the working tree, tracked and staged files) are checked out as
# git worktrees under .bench_build/compare/, each side's benchmark is
# built once, and each workload runs K (default 6) alternating pairs at seed
# 1 and BENCHMARK.json's run_seconds. Exact metrics print both values and
# their difference, the others the median paired ratio and a sign test; it
# exits 1 on a regression past a metric's bound, which for a paired metric
# the sign test must confirm at p <= 0.05 (so K >= 6; fewer pairs print
# "unresolved"). Nothing under bench/ is touched.
BASE ?= HEAD
compare:
	$(GO) run ./cmd/benchcompare -base $(BASE) $(if $(K),-k $(K)) $(if $(CHANGE),-change $(CHANGE))

# The benchmark driver's own vet and tests; bench/ is a nested module, so
# `go test ./...` at the root does not reach it.
benchcheck:
	cd bench && $(GO) vet . && $(GO) test .

# Transport-focused gate: the wire codec and framing/backpressure test
# suites under the race detector, then the n=50 loopback mesh benchmark.
transportbench:
	$(GO) test -race -count=1 ./internal/wire ./internal/transport
	$(GO) test -run='^$$' -bench=BenchmarkLoopbackCluster -benchmem -count=1 ./internal/transport

# Bounded-memory soak of the long-lived service layer: 500 decided waves
# (50x the original 10-wave experiment budget) under the rolling-churn
# scenario, race-clean, plus the snapshot-equivalence and churn-survival
# suites. The short 150-wave variant of the same tests already rides in
# `make test`; SOAK_WAVES overrides the length.
SOAK_WAVES ?= 500
soak:
	SOAK_WAVES=$(SOAK_WAVES) $(GO) test -race -count=1 -v \
		-run 'TestService(BoundedMemorySoak|SnapshotEquivalence|SurvivesChurn)' ./internal/service

# Non-test Go lines of the working tree: the root module (testdata/ and the
# nested bench/ module excluded) and bench/, each on its own line. Tracked
# and untracked non-ignored files count; a file deleted but not yet
# committed does not.
LOC_FILES = git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$$' | grep -v 'testdata/' | while read -r f; do [ -f "$$f" ] && echo "$$f"; done
loc:
	@printf 'root module: '; $(LOC_FILES) | grep -v '^bench/' | xargs cat | wc -l
	@printf 'bench:       '; $(LOC_FILES) | grep '^bench/' | xargs cat | wc -l

# Smoke-test the batch analysis search path: a parallel random-system
# sweep through quorum.AnalyzeSystem (the `experiments quorum -search`
# mode).
search:
	$(GO) run ./cmd/experiments quorum -system random -n 12 -search 50

// Benchmarks regenerating every figure and quantitative claim of the paper
// (one benchmark per experiment of harness.All, plus micro-benchmarks of
// the hot substrate operations). Run:
//
//	go test -bench=. -benchmem
//
// The Benchmark*/commit and */tx metrics are the paper-shaped results:
// waves-per-commit against the Lemma 4.4 bound, message and byte costs of
// the asymmetric control flow, and symmetric-vs-asymmetric throughput.
package asymdag_test

import (
	"runtime"
	"testing"

	asymdag "repro"
	"repro/internal/gather"
	"repro/internal/harness"
	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/types"
)

// E1 — Figure 1: constructing and validating the counterexample system.
func BenchmarkFig1CounterexampleConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := quorum.Counterexample()
		if !sys.SatisfiesB3() || sys.Validate() != nil {
			b.Fatal("counterexample system broken")
		}
	}
}

// E2/E3/E4 — Figures 2–4: the abstract round-merge execution of Listing 1.
func benchRoundSets(b *testing.B, rounds int) {
	sys := quorum.Counterexample()
	choice := gather.CanonicalChoice(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets := gather.RoundSets(sys.N(), choice, rounds)
		if len(sets) != 30 {
			b.Fatal("wrong size")
		}
	}
}

func BenchmarkFig2SSets(b *testing.B) { benchRoundSets(b, 1) }
func BenchmarkFig3TSets(b *testing.B) { benchRoundSets(b, 2) }

func BenchmarkFig4Listing1Verification(b *testing.B) {
	sys := quorum.Counterexample()
	choice := gather.CanonicalChoice(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := gather.RoundSets(sys.N(), choice, 3)
		if !gather.CommonCoreCandidates(sys.N(), choice, u).IsEmpty() {
			b.Fatal("Lemma 3.2 violated")
		}
	}
}

// E4 (message level) — Algorithm 2 on the adversarial schedule.
func adversarialLatency(sys *quorum.System) sim.LatencyModel {
	fav := make([]types.Set, sys.N())
	for i := range fav {
		fav[i] = sys.Quorums(types.ProcessID(i))[0]
	}
	return sim.FavoredLinksLatency{Favored: fav, Fast: 1, Slow: 100000}
}

func BenchmarkGatherAlgorithm2Adversarial(b *testing.B) {
	sys := quorum.Counterexample()
	lat := adversarialLatency(sys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := gather.RunCluster(gather.RunConfig{
			Kind: gather.KindThreeRound, Trust: sys, Mode: gather.UsePlain, Latency: lat, Seed: 1,
		})
		if len(res.Outputs) != 30 {
			b.Fatal("missing deliveries")
		}
	}
}

// E6 — Algorithm 3 on the same schedule (the paper's fix).
func BenchmarkGatherAlgorithm3Adversarial(b *testing.B) {
	sys := quorum.Counterexample()
	lat := adversarialLatency(sys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := gather.RunCluster(gather.RunConfig{
			Kind: gather.KindConstantRound, Trust: sys, Mode: gather.UsePlain, Latency: lat, Seed: 1,
		})
		core := gather.AnalyzeCommonCore(30, res.SSnapshots, res.Outputs, types.FullSet(30))
		if core.IsEmpty() {
			b.Fatal("no common core")
		}
	}
}

// E6 — symmetric baseline gather (Algorithm 1) with full reliable
// broadcast.
func BenchmarkGatherAlgorithm1Threshold(b *testing.B) {
	trust := quorum.NewThreshold(7, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := gather.RunCluster(gather.RunConfig{
			Kind: gather.KindThreeRound, Trust: trust, Mode: gather.UseReliable,
			Latency: sim.UniformLatency{Min: 1, Max: 20}, Seed: int64(i),
		})
		if len(res.Outputs) != 7 {
			b.Fatal("missing deliveries")
		}
	}
}

// E5 — the <16-process search.
func BenchmarkSmallSystemCommonCoreSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{
			N: 10, NumSets: 2, MaxFault: 2, Seed: int64(i),
		})
		if err != nil {
			continue
		}
		choice := gather.CanonicalChoice(sys)
		u := gather.RoundSets(10, choice, 3)
		if gather.CommonCoreCandidates(10, choice, u).IsEmpty() {
			b.Fatal("small-system violation")
		}
	}
}

// E7 — Lemma 4.4: waves per commit, reported as a custom metric next to
// the |P|/c(Q) bound.
func benchCommitWaves(b *testing.B, trust quorum.Assumption, waves int) {
	totalWaves, totalCommits := 0, 0
	for i := 0; i < b.N; i++ {
		res := harness.RunRider(harness.RiderConfig{
			Kind: harness.Asymmetric, Trust: trust, NumWaves: waves,
			Seed: int64(i), CoinSeed: int64(i)*31 + 1,
		})
		for _, nr := range res.Nodes {
			totalWaves += waves
			totalCommits += len(nr.Commits)
		}
	}
	if totalCommits > 0 {
		b.ReportMetric(float64(totalWaves)/float64(totalCommits), "waves/commit")
	}
	if qs, ok := trust.(quorum.QuorumSizer); ok {
		b.ReportMetric(float64(trust.N())/float64(qs.SmallestQuorumSize()), "bound")
	}
}

func BenchmarkCommitWavesThreshold4(b *testing.B) { benchCommitWaves(b, quorum.NewThreshold(4, 1), 10) }
func BenchmarkCommitWavesThreshold7(b *testing.B) { benchCommitWaves(b, quorum.NewThreshold(7, 2), 8) }
func BenchmarkCommitWavesThreshold10(b *testing.B) {
	benchCommitWaves(b, quorum.NewThreshold(10, 3), 6)
}

func BenchmarkCommitWavesCounterexample30(b *testing.B) {
	benchCommitWaves(b, quorum.Counterexample(), 3)
}

func BenchmarkCommitWavesFederated10(b *testing.B) {
	fed, err := quorum.NewFederated(quorum.FederatedConfig{
		N: 10, TopTier: 7, TrustedPeers: 2, Tolerance: 2, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchCommitWaves(b, fed, 8)
}

// E8 — symmetric vs asymmetric DAG-Rider: throughput and network cost.
func benchRider(b *testing.B, kind harness.RiderKind, n, f int) {
	trust := quorum.NewThreshold(n, f)
	var txs, msgs, bytes int
	var vtime int64
	for i := 0; i < b.N; i++ {
		res := harness.RunRider(harness.RiderConfig{
			Kind: kind, Trust: trust, NumWaves: 8, TxPerBlock: 4,
			Seed: int64(i), CoinSeed: int64(i) * 13,
		})
		for _, nr := range res.Nodes {
			txs += len(nr.Blocks)
			break // one representative node
		}
		msgs += res.Metrics.MessagesSent
		bytes += res.Metrics.BytesSent
		vtime += int64(res.EndTime)
	}
	b.ReportMetric(float64(txs)/float64(b.N), "tx/run")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/run")
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/run")
	b.ReportMetric(float64(vtime)/float64(b.N), "vtime/run")
}

func BenchmarkRiderSymmetric4(b *testing.B)  { benchRider(b, harness.Symmetric, 4, 1) }
func BenchmarkRiderAsymmetric4(b *testing.B) { benchRider(b, harness.Asymmetric, 4, 1) }
func BenchmarkRiderSymmetric7(b *testing.B)  { benchRider(b, harness.Symmetric, 7, 2) }
func BenchmarkRiderAsymmetric7(b *testing.B) { benchRider(b, harness.Asymmetric, 7, 2) }

// E9 — consensus under faults.
func BenchmarkRiderAsymmetricWithCrashes(b *testing.B) {
	trust := quorum.NewThreshold(7, 2)
	for i := 0; i < b.N; i++ {
		res := harness.RunRider(harness.RiderConfig{
			Kind: harness.Asymmetric, Trust: trust, NumWaves: 6, TxPerBlock: 2,
			Seed: int64(i), CoinSeed: int64(i),
			Scenario: &scenario.Scenario{Faults: []scenario.NodeFault{scenario.Mute(5), scenario.Mute(6)}},
		})
		correct := types.NewSetOf(7, 0, 1, 2, 3, 4)
		if err := res.CheckTotalOrder(correct); err != nil {
			b.Fatal(err)
		}
	}
}

// E10 / quickstart — the public API end to end.
func BenchmarkClusterQuickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cluster := asymdag.NewCluster(asymdag.ClusterConfig{
			Trust: asymdag.NewThreshold(4, 1), NumWaves: 6, Seed: int64(i), CoinSeed: 3,
		})
		cluster.Submit(0, "a", "b", "c")
		res := cluster.Run()
		if err := res.CheckTotalOrder(types.FullSet(4)); err != nil {
			b.Fatal(err)
		}
	}
}

// Sweep engine: multi-seed fan-out over GOMAXPROCS goroutines. Run with
// -cpu 1,2,... to measure the speedup of sharding independent seeds across
// cores (identical results by the sweep determinism contract).

func BenchmarkSweepRider(b *testing.B) {
	trust := quorum.NewThreshold(4, 1)
	seeds := sim.SeedRange(0, 16)
	correct := types.FullSet(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := harness.SweepRider(seeds, func(seed int64) harness.RiderConfig {
			return harness.RiderConfig{
				Kind: harness.Asymmetric, Trust: trust, NumWaves: 6, TxPerBlock: 2,
				Seed: seed, CoinSeed: seed*13 + 1,
			}
		}, func(res harness.RiderResult) (harness.Verdict, error) {
			return harness.Held, res.CheckTotalOrder(correct)
		})
		if stats.Failures > 0 {
			b.Fatal(stats.First)
		}
	}
	b.ReportMetric(float64(len(seeds))*float64(b.N)/b.Elapsed().Seconds(), "runs/s")
}

func BenchmarkSweepGather(b *testing.B) {
	sys := quorum.Counterexample()
	seeds := sim.SeedRange(0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := harness.SweepGather(seeds, func(seed int64) gather.RunConfig {
			return gather.RunConfig{
				Kind: gather.KindConstantRound, Trust: sys, Mode: gather.UsePlain,
				Latency: sim.UniformLatency{Min: 1, Max: 20}, Seed: seed,
			}
		}, nil)
		if stats.CommonCores != stats.Runs {
			b.Fatalf("common core missing in %d/%d runs", stats.Runs-stats.CommonCores, stats.Runs)
		}
	}
	b.ReportMetric(float64(len(seeds))*float64(b.N)/b.Elapsed().Seconds(), "runs/s")
}

// Large-n single-run scaling: the event queue plus parallel same-time
// delivery. One n=100 execution is far too slow to run to quiescence
// inside a benchmark iteration (several million deliveries),
// so each op delivers a fixed 300k-event budget of the run — a
// well-defined unit of work that makes serial and parallel directly
// comparable. The Serial/Parallel pair is the scaling claim: on a
// multi-core host parallel delivery must beat serial (on a single-core
// host it only pays the buffering overhead); the serial numbers track
// the default path's scheduler cost.

const largeNEvents = 300_000

func benchLargeNRider(b *testing.B, workers int) {
	trust := quorum.NewThreshold(100, 33)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := harness.RunRider(harness.RiderConfig{
			Kind: harness.Asymmetric, Trust: trust, NumWaves: 2, TxPerBlock: 1,
			Seed: int64(i), CoinSeed: int64(i)*13 + 1,
			Latency:   sim.UniformLatency{Min: 1, Max: 5},
			MaxEvents: largeNEvents, DeliveryWorkers: workers,
		})
		if len(res.Nodes) != 100 {
			b.Fatal("large-n rider lost nodes")
		}
		if !res.HitLimit {
			b.Fatal("large-n rider quiesced inside the event budget; raise the budget")
		}
	}
	b.ReportMetric(float64(largeNEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkLargeNRiderSerial(b *testing.B) { benchLargeNRider(b, 0) }
func BenchmarkLargeNRiderParallel(b *testing.B) {
	benchLargeNRider(b, runtime.GOMAXPROCS(0))
}

// Micro-benchmarks of the substrate hot paths. ---------------------------

func BenchmarkSetIntersects(b *testing.B) {
	x := types.FullSet(64)
	y := types.NewSetOf(64, 63)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.Intersects(y) {
			b.Fatal("must intersect")
		}
	}
}

func BenchmarkQuorumPredicateCounterexample(b *testing.B) {
	sys := quorum.Counterexample()
	m := types.FullSet(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sys.HasQuorumWithin(types.ProcessID(i%30), m) {
			b.Fatal("full set must contain a quorum")
		}
	}
}

// Analysis engine: the word-compiled Validate/SatisfiesB3 sweeps on an
// n=30 random asymmetric system (the `experiments quorum -search` shape). The
// compiled pair must stay ≥2× ahead of the nested-set-loop references,
// BenchmarkValidateNaive and BenchmarkSatisfiesB3Naive in internal/quorum.

func analysisBenchSystem(b *testing.B) *quorum.System {
	sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{
		N: 30, NumSets: 2, MaxFault: 6, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	sys.Validate() // compile the evaluator outside the timed loop
	return sys
}

func BenchmarkValidate(b *testing.B) {
	sys := analysisBenchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sys.Validate() != nil {
			b.Fatal("bench system must be valid")
		}
	}
}

func BenchmarkSatisfiesB3(b *testing.B) {
	sys := analysisBenchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sys.SatisfiesB3() {
			b.Fatal("bench system must satisfy B3")
		}
	}
}

func BenchmarkAnalyzeSystem(b *testing.B) {
	sys := analysisBenchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := quorum.AnalyzeSystem(sys); !a.Valid || !a.B3 {
			b.Fatal("bench system must analyze clean")
		}
	}
}

// BenchmarkSearch is the `experiments quorum -search` inner loop: generate random
// asymmetric systems across a parallel seed sweep and batch-analyze each.
func BenchmarkSearch(b *testing.B) {
	seeds := sim.SeedRange(1, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _ := sim.Sweep(seeds, func(seed int64) bool {
			sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{
				N: 12, NumSets: 2, MaxFault: 2, Seed: seed,
			})
			if err != nil {
				return false
			}
			return quorum.AnalyzeSystem(sys).Valid
		})
		valid := 0
		for _, v := range ok {
			if v {
				valid++
			}
		}
		if valid == 0 {
			b.Fatal("search produced no valid systems")
		}
	}
	b.ReportMetric(float64(len(seeds))*float64(b.N)/b.Elapsed().Seconds(), "systems/s")
}

func BenchmarkReliableBroadcastRound(b *testing.B) {
	trust := quorum.NewThreshold(4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := gather.RunCluster(gather.RunConfig{
			Kind: gather.KindThreeRound, Trust: trust, Mode: gather.UseReliable,
			Latency: sim.ConstantLatency(1), Seed: int64(i),
		})
		if len(res.Outputs) != 4 {
			b.Fatal("missing outputs")
		}
	}
}

// Extension benchmarks: the additional primitives beyond the paper's core
// pipeline (revealed coin, Tusk-style two-round gather, binding gather)
// and the protocol-level ablations.

// Revealed-coin ablation: the share-gated coin's cost relative to direct
// PRF evaluation (compare with BenchmarkRiderAsymmetric4).
func BenchmarkRiderRevealedCoin4(b *testing.B) {
	trust := quorum.NewThreshold(4, 1)
	for i := 0; i < b.N; i++ {
		res := harness.RunRider(harness.RiderConfig{
			Kind: harness.Asymmetric, Trust: trust, NumWaves: 8, TxPerBlock: 4,
			Seed: int64(i), CoinSeed: int64(i) * 13, RevealedCoin: true,
		})
		if err := res.CheckTotalOrder(types.FullSet(4)); err != nil {
			b.Fatal(err)
		}
	}
}

// Tusk-style two-round primitive: the cheapest (and, asymmetrically,
// unsound) common-core attempt.
func BenchmarkGatherTwoRoundThreshold(b *testing.B) {
	trust := quorum.NewThreshold(7, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := trust.N()
		nodes := make([]sim.Node, n)
		for k := range nodes {
			nodes[k] = gather.NewTwoRoundNode(gather.Config{
				Trust: trust, Input: gather.InputValue(types.ProcessID(k)), Mode: gather.UseReliable,
			})
		}
		r := sim.NewRunner(sim.Config{N: n, Seed: int64(i), Latency: sim.UniformLatency{Min: 1, Max: 20}}, nodes)
		r.Run(0)
	}
}

// Binding gather (E12): the extra-round variant.
func BenchmarkGatherBindingCounterexample(b *testing.B) {
	sys := quorum.Counterexample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := sys.N()
		nodes := make([]sim.Node, n)
		for k := range nodes {
			nodes[k] = gather.NewBindingNode(gather.Config{
				Trust: sys, Input: gather.InputValue(types.ProcessID(k)), Mode: gather.UsePlain,
			})
		}
		r := sim.NewRunner(sim.Config{N: n, Seed: int64(i), Latency: sim.UniformLatency{Min: 1, Max: 10}}, nodes)
		r.Run(0)
	}
}

// GC ablation (E13): bounded-memory consensus.
func BenchmarkRiderWithGC(b *testing.B) {
	trust := quorum.NewThreshold(4, 1)
	for i := 0; i < b.N; i++ {
		res := harness.RunRider(harness.RiderConfig{
			Kind: harness.Asymmetric, Trust: trust, NumWaves: 8, TxPerBlock: 4,
			Seed: int64(i), CoinSeed: int64(i) * 13, GCDepth: 3,
		})
		if err := res.CheckTotalOrder(types.FullSet(4)); err != nil {
			b.Fatal(err)
		}
	}
}

// Service mode (E14): sustained throughput of the long-lived replicated
// service — pipelined client batching, mandatory DAG GC, periodic
// snapshot/compaction. The /s metrics are wall-clock sustained rates; the
// latency metrics are virtual-time commit latency of a replica's own
// commands, and peak-vertices is the GC-bounded live DAG headline.
func BenchmarkServiceSustained(b *testing.B) {
	trust := quorum.NewThreshold(4, 1)
	var msgs, commits, applied, peak int
	var p50, p99 int64
	for i := 0; i < b.N; i++ {
		res := service.Run(service.Config{
			Trust: trust, Seed: int64(i), CoinSeed: int64(i)*17 + 3,
			StopAfterWaves: 20,
		})
		if !res.Stopped {
			b.Fatal("service run hit the event budget before the target wave")
		}
		if _, err := service.CompareSnapshots(res); err != nil {
			b.Fatal(err)
		}
		st := harness.SummarizeService(res)
		msgs += res.Metrics.MessagesDelivered
		for _, rep := range res.Replicas {
			commits += rep.Commits
			applied += rep.Applied
		}
		if st.Latency.P50 > p50 {
			p50 = st.Latency.P50
		}
		if st.Latency.P99 > p99 {
			p99 = st.Latency.P99
		}
		if st.PeakLiveVertices > peak {
			peak = st.PeakLiveVertices
		}
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(msgs)/sec, "msgs/s")
	b.ReportMetric(float64(commits)/sec, "commits/s")
	b.ReportMetric(float64(applied)/sec, "tx/s")
	b.ReportMetric(float64(p50), "p50-commit-vt")
	b.ReportMetric(float64(p99), "p99-commit-vt")
	b.ReportMetric(float64(peak), "peak-vertices")
}

// serviceAllocs runs the service under cfg, checks that every replica
// reached its target wave and that the replicas' snapshots agree, and
// returns the heap allocations the run made, the transactions the longest
// replica log applied, and the bytes of heap its nodes still hold at the
// end, per node: cfg.Wrap is chained to keep every node reachable, and
// the count is the live heap after a collection less the live heap before
// the run.
func serviceAllocs(tb testing.TB, cfg service.Config) (mallocs uint64, applied int, liveBytes float64) {
	nodes := make([]sim.Node, cfg.Trust.N())
	wrap := cfg.Wrap
	cfg.Wrap = func(p types.ProcessID, inner sim.Node) sim.Node {
		if wrap != nil {
			inner = wrap(p, inner)
		}
		nodes[p] = inner
		return inner
	}
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := service.Run(cfg)
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(nodes)
	liveBytes = (float64(live.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(nodes))
	if !res.Stopped {
		tb.Fatalf("service run hit the event budget before wave %d", cfg.StopAfterWaves)
	}
	if compared, err := service.CompareSnapshots(res); err != nil || compared == 0 {
		tb.Fatalf("snapshots: %d compared, %v", compared, err)
	}
	for _, rep := range res.Replicas {
		applied = max(applied, rep.Applied)
	}
	return after.Mallocs - before.Mallocs, applied, liveBytes
}

// benchAllocsPerTx reports the allocations per applied transaction of one
// service run under cfg, and the heap each replica still holds when the
// run ends (see serviceAllocs).
func benchAllocsPerTx(b *testing.B, cfg service.Config) {
	var mallocs uint64
	var applied, runs int
	var live float64
	for b.Loop() {
		m, a, l := serviceAllocs(b, cfg)
		mallocs += m
		applied += a
		live += l
		runs++
	}
	b.ReportMetric(float64(mallocs)/float64(applied), "allocs/tx")
	b.ReportMetric(live/float64(runs), "live-B/replica")
}

// requireAllocsPerTx fails t when one service run under cfg allocates more
// than ceiling objects per applied transaction.
func requireAllocsPerTx(t *testing.T, cfg service.Config, ceiling float64) {
	if testing.Short() {
		t.Skip("a full service run")
	}
	mallocs, applied, _ := serviceAllocs(t, cfg)
	perTx := float64(mallocs) / float64(applied)
	if perTx > ceiling {
		t.Errorf("%d allocations for %d applied tx: %.3f per tx, want ≤ %.2f", mallocs, applied, perTx, ceiling)
	}
	t.Logf("%.3f allocations per applied tx, ceiling %.2f", perTx, ceiling)
}

// serviceFig1 is the service on the paper's Fig. 1 system (n=30) to wave
// 10 with seed 1, as one seed of the benchmark's sim_asym_n30 workload
// runs.
func serviceFig1() service.Config {
	return service.Config{Trust: quorum.Counterexample(), Seed: 1, CoinSeed: 1, StopAfterWaves: 10}
}

// serviceFaults7 is the service at n=7 f=2 under the partition-heal
// scenario to wave 8 with seed 1, snapshotting every wave, as one seed of
// the benchmark's sim_faults_n7 workload runs.
func serviceFaults7() service.Config {
	def, ok := scenario.Find("partition-heal")
	if !ok {
		panic("no built-in partition-heal scenario")
	}
	cfg := service.Config{Trust: quorum.NewThreshold(7, 2), CoinSeed: 1, StopAfterWaves: 8, SnapshotEvery: 1}
	return harness.ServiceScenarioConfig(def, cfg, 1)
}

// BenchmarkServiceFig1 reports the allocations per applied transaction of
// one Fig. 1 service run, the count sim_asym_n30's allocs_per_tx measures.
func BenchmarkServiceFig1(b *testing.B) { benchAllocsPerTx(b, serviceFig1()) }

// BenchmarkServiceFaults7 reports the same count for one partition-heal
// run at n=7, the count sim_faults_n7's allocs_per_tx measures.
func BenchmarkServiceFaults7(b *testing.B) { benchAllocsPerTx(b, serviceFaults7()) }

// TestServiceAllocsPerTx bounds the Fig. 1 count: per-round and per-wave
// state (source trackers, delivery and ACK marks, DAG rows, wave gates,
// broadcast rows) is recycled with its round and made a chunk of rounds
// at a time, client commands are rendered many to a string, edge lists
// are cut from a slab and a READY reuses the body of the vote that
// completed it, so a round allocates little beyond the vertex it creates.
func TestServiceAllocsPerTx(t *testing.T) { requireAllocsPerTx(t, serviceFig1(), 0.60) }

// TestServiceFaults7AllocsPerTx bounds the partition-heal count, where a
// snapshot every wave makes KV.Snapshot's one buffer per call part of it.
func TestServiceFaults7AllocsPerTx(t *testing.T) { requireAllocsPerTx(t, serviceFaults7(), 0.70) }

// TestServiceLiveBytes bounds the heap a Fig. 1 replica still holds when
// its run ends, BenchmarkServiceFig1's live-B/replica: a broadcast slot
// keeps R2's fetch sets behind a pointer, set only where a fetch ran, and
// the service tracks own-command latency by admission index in a histogram
// whose buckets grow with the latencies seen.
func TestServiceLiveBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("a full service run")
	}
	const ceiling = 210_000
	_, _, live := serviceAllocs(t, serviceFig1())
	if live > ceiling {
		t.Errorf("a Fig. 1 replica holds %.0f B of heap at the end of its run, want ≤ %d", live, ceiling)
	}
	t.Logf("%.0f B of live heap per replica, ceiling %d", live, ceiling)
}

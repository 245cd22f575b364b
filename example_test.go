package asymdag_test

import (
	"fmt"
	"log"
	"time"

	asymdag "repro"
)

// Run a 4-process asymmetric DAG consensus cluster with threshold trust,
// submit transactions at different processes, and print the totally
// ordered log every process agrees on.
func ExampleNewCluster() {
	// The threshold assumption n=4, f=1 is the simplest asymmetric system
	// (every process makes the same assumption). Any *asymdag.System works
	// in its place — see ExampleNewFederated.
	trust := asymdag.NewThreshold(4, 1)

	cluster := asymdag.NewCluster(asymdag.ClusterConfig{
		Trust:    trust,
		NumWaves: 10,
		Seed:     42,
		CoinSeed: 7,
	})

	// Clients submit transactions at whatever process they talk to.
	cluster.Submit(0, "alice->bob:5", "alice->carol:2")
	cluster.Submit(1, "bob->dave:1")
	cluster.Submit(2, "carol->alice:9", "dave->bob:4")
	cluster.Submit(3, "erin->frank:8")

	res := cluster.Run()

	fmt.Printf("network: %d messages, %d bytes, virtual time %d\n",
		res.Metrics.MessagesSent, res.Metrics.BytesSent, res.EndTime)
	fmt.Printf("orders agree across all processes: %v\n\n",
		res.CheckTotalOrder(asymdag.FullSet(4)) == nil)

	for p := 0; p < 4; p++ {
		id := asymdag.ProcessID(p)
		nr := res.Nodes[id]
		fmt.Printf("%v: committed %d waves, reached round %d, delivered %d txs\n",
			id, len(nr.Commits), nr.Round, len(nr.Blocks))
	}

	fmt.Println("\ntotally ordered log (process p1's view):")
	for i, tx := range res.Nodes[0].Blocks {
		fmt.Printf("%3d. %s\n", i+1, tx)
	}
	// Output:
	// network: 4200 messages, 42249 bytes, virtual time 1810
	// orders agree across all processes: true
	//
	// p1: committed 10 waves, reached round 40, delivered 6 txs
	// p2: committed 10 waves, reached round 40, delivered 6 txs
	// p3: committed 10 waves, reached round 40, delivered 6 txs
	// p4: committed 10 waves, reached round 40, delivered 6 txs
	//
	// totally ordered log (process p1's view):
	//   1. alice->bob:5
	//   2. alice->carol:2
	//   3. bob->dave:1
	//   4. carol->alice:9
	//   5. dave->bob:4
	//   6. erin->frank:8
}

// Walk through the paper's Appendix A: build the 30-process Figure 1
// system, execute the unsound quorum-replacement gather (Algorithm 2)
// under the adversarial schedule to show the common core fail (Lemma 3.2),
// then run the paper's constant-round asymmetric gather (Algorithm 3) on
// the identical schedule and watch it succeed.
func ExampleCounterexample() {
	sys := asymdag.Counterexample()
	n := sys.N()
	fmt.Printf("Figure 1 system: %d processes, each with a single quorum of size 6\n", n)
	fmt.Printf("B3 holds: %v — so a valid asymmetric quorum system exists (Theorem 2.4)\n\n", sys.SatisfiesB3())

	// The adversarial schedule: every process hears exactly its canonical
	// quorum fast, everything else slow.
	fav := make([]asymdag.Set, n)
	for i := 0; i < n; i++ {
		fav[i] = sys.Quorums(asymdag.ProcessID(i))[0]
	}
	adversarial := asymdag.FavoredLinksLatency{Favored: fav, Fast: 1, Slow: 100000}

	run := func(kind asymdag.GatherKind) asymdag.GatherResult {
		return asymdag.RunGather(asymdag.GatherConfig{
			Kind:    kind,
			Trust:   sys,
			Mode:    asymdag.GatherUsePlain, // all-correct Appendix A execution
			Latency: adversarial,
			Seed:    1,
		})
	}

	// Algorithm 2: quorum replacement. No common core.
	res2 := run(asymdag.GatherThreeRound)
	fmt.Printf("Algorithm 2 (quorum replacement): %d/%d delivered, %d messages\n",
		len(res2.Outputs), n, res2.Metrics.MessagesSent)
	fmt.Println("sample outputs (note every process misses someone in [16,30]):")
	for _, p := range []asymdag.ProcessID{0, 5, 14} {
		fmt.Printf("  %v delivers %v\n", p, res2.Outputs[p].Senders(n))
	}
	fmt.Println("⇒ no S set is contained in every output: the common core property FAILS (Lemma 3.2)")

	// Algorithm 3: the paper's constant-round asymmetric gather.
	res3 := run(asymdag.GatherConstantRound)
	fmt.Printf("\nAlgorithm 3 (constant-round asymmetric gather): %d/%d delivered, %d messages\n",
		len(res3.Outputs), n, res3.Metrics.MessagesSent)
	fmt.Println("⇒ a common core exists on the very same adversarial schedule:")
	fmt.Println("   the extra ACK/READY/CONFIRM control flow guarantees some process's S set")
	fmt.Println("   reaches a full quorum before anyone distributes its T set (§3.3)")
	fmt.Printf("   cost: %.1f× the messages of Algorithm 2\n",
		float64(res3.Metrics.MessagesSent)/float64(res2.Metrics.MessagesSent))
	// Output:
	// Figure 1 system: 30 processes, each with a single quorum of size 6
	// B3 holds: true — so a valid asymmetric quorum system exists (Theorem 2.4)
	//
	// Algorithm 2 (quorum replacement): 30/30 delivered, 2610 messages
	// sample outputs (note every process misses someone in [16,30]):
	//   p1 delivers {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27}
	//   p6 delivers {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 21, 22, 23, 24, 25, 27, 28, 29, 30}
	//   p15 delivers {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 18, 20, 21, 22, 24, 25, 26, 27, 28, 29, 30}
	// ⇒ no S set is contained in every output: the common core property FAILS (Lemma 3.2)
	//
	// Algorithm 3 (constant-round asymmetric gather): 30/30 delivered, 5220 messages
	// ⇒ a common core exists on the very same adversarial schedule:
	//    the extra ACK/READY/CONFIRM control flow guarantees some process's S set
	//    reaches a full quorum before anyone distributes its T set (§3.3)
	//    cost: 2.0× the messages of Algorithm 2
}

// Build a Stellar-flavoured tiered trust topology where every participant
// chooses its own trust assumptions, inspect the resulting asymmetric
// quorum system (B3, guilds, kernels), and run the asymmetric DAG
// consensus over it while two top-tier members fail.
func ExampleNewFederated() {
	// 12 participants: a 7-member top tier (think: well-known foundations)
	// everyone partially trusts, tolerating any 2 of them failing, plus
	// individually chosen peers.
	sys, err := asymdag.NewFederated(asymdag.FederatedConfig{
		N:            12,
		TopTier:      7,
		TrustedPeers: 3,
		Tolerance:    2,
		Seed:         11,
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Printf("federated system with %d participants\n", sys.N())
	fmt.Printf("satisfies B3 (quorum system exists): %v\n", sys.SatisfiesB3())
	fmt.Printf("valid asymmetric quorum system: %v\n", sys.Validate() == nil)
	fmt.Printf("smallest quorum c(Q): %d → Lemma 4.4 commit bound %.2f waves\n\n",
		sys.SmallestQuorumSize(), float64(sys.N())/float64(sys.SmallestQuorumSize()))

	// Trust is heterogeneous: print a few processes' quorums.
	for _, p := range []asymdag.ProcessID{0, 7, 11} {
		fmt.Printf("%v quorums: %v\n", p, sys.Quorums(p)[0])
	}

	// Guild analysis: two top-tier members fail.
	faulty := asymdag.NewSetOf(12, 0, 1)
	guild := sys.MaximalGuild(faulty)
	fmt.Printf("\nif %v fail: wise=%v, naive=%v, maximal guild=%v\n",
		faulty, sys.Wise(faulty), sys.Naive(faulty), guild)

	// Run consensus with those two actually muted.
	res := asymdag.RunConsensus(asymdag.RiderConfig{
		Kind:       asymdag.RiderAsymmetric,
		Trust:      sys,
		NumWaves:   8,
		TxPerBlock: 3,
		Seed:       3,
		CoinSeed:   5,
		Scenario: &asymdag.Scenario{Faults: []asymdag.ScenarioNodeFault{
			asymdag.MuteFault(0),
			asymdag.MuteFault(1),
		}},
	})

	fmt.Println("\nconsensus with the two top-tier members mute:")
	for _, p := range guild.Members() {
		nr := res.Nodes[p]
		fmt.Printf("  %v: round %d, decided wave %d, %d txs delivered\n",
			p, nr.Round, nr.DecidedWave, len(nr.Blocks))
	}
	if err := res.CheckTotalOrder(guild); err != nil {
		fmt.Println("total order violated:", err)
		return
	}
	if err := res.CheckAgreement(guild); err != nil {
		fmt.Println("agreement violated:", err)
		return
	}
	fmt.Println("\ntotal order and agreement hold for the maximal guild ✓")
	// Output:
	// federated system with 12 participants
	// satisfies B3 (quorum system exists): true
	// valid asymmetric quorum system: true
	// smallest quorum c(Q): 9 → Lemma 4.4 commit bound 1.33 waves
	//
	// p1 quorums: {1, 3, 4, 5, 6, 7, 9, 10, 11, 12}
	// p8 quorums: {3, 4, 5, 6, 7, 8, 9, 10, 12}
	// p12 quorums: {3, 4, 5, 6, 7, 8, 9, 10, 12}
	//
	// if {1, 2} fail: wise={3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, naive={}, maximal guild={3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	//
	// consensus with the two top-tier members mute:
	//   p3: round 32, decided wave 8, 843 txs delivered
	//   p4: round 32, decided wave 8, 843 txs delivered
	//   p5: round 32, decided wave 8, 843 txs delivered
	//   p6: round 32, decided wave 8, 843 txs delivered
	//   p7: round 32, decided wave 8, 843 txs delivered
	//   p8: round 32, decided wave 8, 843 txs delivered
	//   p9: round 32, decided wave 8, 843 txs delivered
	//   p10: round 32, decided wave 8, 843 txs delivered
	//   p11: round 32, decided wave 8, 843 txs delivered
	//   p12: round 32, decided wave 8, 843 txs delivered
	//
	// total order and agreement hold for the maximal guild ✓
}

// A long-lived replicated key-value service. Four replicas run the
// asymmetric DAG consensus under constant synthetic client load while the
// "rolling-churn" scenario crashes and recovers replicas in rolling
// windows, through the full service lifecycle:
//
//	queue → batch → block → wave → commit → apply → snapshot/compact
//
// with pipelined wave proposal, mandatory DAG garbage collection (memory
// stays bounded no matter how long the service runs), and periodic state
// snapshots with ordered-log compaction. At every decided wave where two
// replicas both snapshotted, their key-value states are byte-identical —
// checked at the end, churn and all. `make soak` runs the same scenario
// for 500 waves.
func ExampleRunService() {
	const n, waves, seed = 4, 60, 3 // seed is the network schedule's and picks the churn victims
	cfg := asymdag.ServiceConfig{
		Trust:          asymdag.NewThreshold(n, 1),
		CoinSeed:       7,
		BatchSize:      16, // transactions packed into one block
		PipelineDepth:  8,  // waves proposals may run ahead of decisions
		GCDepth:        12, // rounds of DAG kept below the decided horizon
		SnapshotEvery:  4,  // decided waves between snapshot/compaction points
		StopAfterWaves: waves,
	}

	// Rolling churn: replicas crash and recover in rolling windows with
	// their deliveries buffered — the canonical long-lived-deployment
	// hazard a replicated service must ride out.
	def, ok := asymdag.FindScenario("rolling-churn")
	if !ok {
		fmt.Println("rolling-churn scenario missing from the registry")
		return
	}
	cfg = asymdag.ServiceScenarioConfig(def, cfg, seed)

	fmt.Printf("running %d replicas to decided wave %d under %s...\n\n", n, waves, def.Name)
	res := asymdag.RunService(cfg)
	if !res.Stopped {
		fmt.Println("run ended at the event budget before reaching the target wave")
		return
	}

	fmt.Println("per-replica service report:")
	for p := 0; p < n; p++ {
		rep := res.Replicas[asymdag.ProcessID(p)]
		fmt.Printf("  replica %d: wave %d, %d applied (%d compacted away, %d in tail), %d snapshots, commit latency p50=%d p99=%d\n",
			p, rep.DecidedWave, rep.Applied, rep.Compacted, rep.TailLen,
			len(rep.Snapshots), rep.Latency.P50, rep.Latency.P99)
	}

	st := asymdag.SummarizeService(res)
	fmt.Printf("\nsustained throughput: %.2f tx per virtual-time unit per replica\n", st.Throughput)
	fmt.Printf("commit rate:          %.4f waves per virtual-time unit per replica\n", st.CommitRate)
	fmt.Printf("peak live DAG:        %d vertices (bounded by GC, independent of run length)\n",
		st.PeakLiveVertices)

	compared, err := asymdag.CheckServiceSnapshots(res)
	if err != nil {
		fmt.Println("snapshot divergence:", err)
		return
	}
	if compared == 0 {
		fmt.Println("no snapshot wave was shared by two replicas (vacuous check)")
		return
	}
	fmt.Printf("\n%d cross-replica snapshot comparisons: all byte-identical ✓\n", compared)
	// Output:
	// running 4 replicas to decided wave 60 under rolling-churn...
	//
	// per-replica service report:
	//   replica 0: wave 60, 14996 applied (14228 compacted away, 768 in tail), 14 snapshots, commit latency p50=682 p99=1170
	//   replica 1: wave 60, 14996 applied (14228 compacted away, 768 in tail), 14 snapshots, commit latency p50=896 p99=1190
	//   replica 2: wave 60, 14996 applied (14228 compacted away, 768 in tail), 14 snapshots, commit latency p50=794 p99=1207
	//   replica 3: wave 60, 14996 applied (14228 compacted away, 768 in tail), 14 snapshots, commit latency p50=832 p99=1419
	//
	// sustained throughput: 1.36 tx per virtual-time unit per replica
	// commit rate:          0.0052 waves per virtual-time unit per replica
	// peak live DAG:        95 vertices (bounded by GC, independent of run length)
	//
	// 42 cross-replica snapshot comparisons: all byte-identical ✓
}

// The paper's fault model end to end: the asymmetric DAG consensus with
// (A) crash faults inside every process's fail-prone assumptions
// (everyone wise — safety and liveness hold), (B) faults beyond some
// processes' assumptions (naive processes exist and the guarantees are
// scoped to the maximal guild), and (C) a custom declarative scenario, a
// healing partition plus churn, checked against the Definition 4.1
// properties. `make scenarios` sweeps the built-in scenario registry.
func ExampleRunConsensus() {
	// Asymmetric trust: p1..p6 tolerate {p7} or {p8}; p7, p8 tolerate
	// {p2, p3} as well. Canonical quorums.
	n := 8
	smallFault1 := asymdag.NewSetOf(n, 6) // {p7}
	smallFault2 := asymdag.NewSetOf(n, 7) // {p8}
	bigFault := asymdag.NewSetOf(n, 1, 2) // {p2,p3}
	failProne := make([][]asymdag.Set, n)
	for i := 0; i < 6; i++ {
		failProne[i] = []asymdag.Set{smallFault1, smallFault2}
	}
	for i := 6; i < 8; i++ {
		failProne[i] = []asymdag.Set{smallFault1, smallFault2, bigFault}
	}
	sys, err := asymdag.Canonical(n, failProne)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := sys.Validate(); err != nil {
		fmt.Println("system invalid:", err)
		return
	}
	fmt.Printf("asymmetric system over %d processes; B3: %v\n\n", n, sys.SatisfiesB3())

	// Scenario A: p7 crashes — inside everyone's assumptions.
	faultyA := asymdag.NewSetOf(n, 6)
	guildA := sys.MaximalGuild(faultyA)
	fmt.Printf("scenario A: %v mute (tolerated by all)\n", faultyA)
	fmt.Printf("  wise: %v, guild: %v\n", sys.Wise(faultyA), guildA)
	resA := asymdag.RunConsensus(asymdag.RiderConfig{
		Kind: asymdag.RiderAsymmetric, Trust: sys, NumWaves: 8, TxPerBlock: 2,
		Seed: 1, CoinSeed: 1,
		Scenario: &asymdag.Scenario{Faults: []asymdag.ScenarioNodeFault{asymdag.MuteFault(6)}},
	})
	reportGuild(resA, guildA)

	// Scenario B: p2 and p3 crash — only p7/p8 foresaw this, but they
	// cannot form a guild alone: the maximal guild is empty and no
	// liveness is promised (safety still never breaks).
	faultyB := asymdag.NewSetOf(n, 1, 2)
	guildB := sys.MaximalGuild(faultyB)
	fmt.Printf("\nscenario B: %v mute (beyond most assumptions)\n", faultyB)
	fmt.Printf("  wise: %v, naive: %v, guild: %v (size %d)\n",
		sys.Wise(faultyB), sys.Naive(faultyB), guildB, guildB.Count())
	resB := asymdag.RunConsensus(asymdag.RiderConfig{
		Kind: asymdag.RiderAsymmetric, Trust: sys, NumWaves: 8, TxPerBlock: 2,
		Seed: 2, CoinSeed: 2,
		Scenario: &asymdag.Scenario{Faults: []asymdag.ScenarioNodeFault{asymdag.MuteFault(1), asymdag.MuteFault(2)}},
	})
	correctB := faultyB.Complement()
	committed := 0
	for _, p := range correctB.Members() {
		if resB.Nodes[p].DecidedWave > 0 {
			committed++
		}
	}
	fmt.Printf("  correct processes that committed: %d (no guild ⇒ no liveness promise)\n", committed)
	if err := resB.CheckTotalOrder(correctB); err != nil {
		fmt.Println("  SAFETY violated:", err)
	} else {
		fmt.Println("  total order still holds among all correct processes (safety is unconditional) ✓")
	}

	// Scenario C: the declarative scenario engine. A custom scenario
	// composes a healing partition (cross-partition traffic held back until
	// t=450) with buffered crash-recovery churn on one process, and
	// declares the full Definition 4.1 contract; the sweep checks it on
	// every seed. Zero-value sweep config = threshold(4,1), 6 waves.
	custom := asymdag.ScenarioDefinition{
		Name: "heal+churn",
		Desc: "healing half/half partition plus one buffered crash-recover process",
		Build: func(n int, seed int64) asymdag.Scenario {
			half := asymdag.NewSet(n)
			for p := 0; p < n/2; p++ {
				half.Add(asymdag.ProcessID(p))
			}
			victim := asymdag.ProcessID(seed % int64(n))
			return asymdag.Scenario{
				Name: "heal+churn",
				Rules: []asymdag.ScenarioRule{{
					Window:    asymdag.ScenarioWindow{From: 150, Until: 450},
					Links:     asymdag.LinksBetween(half, half.Complement()),
					HoldUntil: 450,
				}},
				Faults: []asymdag.ScenarioNodeFault{
					asymdag.ChurnFault(victim, 100, 400, true),
				},
				Properties: asymdag.AllScenarioProperties(),
			}
		},
	}
	fmt.Println("\nscenario C: declarative scenario engine")
	cStats := asymdag.SweepScenario(custom, asymdag.SeedRange(1, 6), asymdag.ScenarioSweepConfig{})
	if cStats.First != nil {
		fmt.Println("  custom scenario failed:", cStats.First)
		return
	}
	fmt.Printf("  custom %q: %d/%d seeds hold all Definition 4.1 properties ✓\n",
		custom.Name, cStats.Seeds-cStats.Failures, cStats.Seeds)
	// Output:
	// asymmetric system over 8 processes; B3: true
	//
	// scenario A: {7} mute (tolerated by all)
	//   wise: {1, 2, 3, 4, 5, 6, 8}, guild: {1, 2, 3, 4, 5, 6, 8}
	//   guild members committed: 7/7
	//   total order + agreement hold for the guild ✓
	//
	// scenario B: {2, 3} mute (beyond most assumptions)
	//   wise: {7, 8}, naive: {1, 4, 5, 6}, guild: {} (size 0)
	//   correct processes that committed: 0 (no guild ⇒ no liveness promise)
	//   total order still holds among all correct processes (safety is unconditional) ✓
	//
	// scenario C: declarative scenario engine
	//   custom "heal+churn": 6/6 seeds hold all Definition 4.1 properties ✓
}

// reportGuild prints how many guild members committed and whether total
// order and agreement held for the guild.
func reportGuild(res asymdag.RiderResult, guild asymdag.Set) {
	committed := 0
	for _, p := range guild.Members() {
		if res.Nodes[p].DecidedWave > 0 {
			committed++
		}
	}
	fmt.Printf("  guild members committed: %d/%d\n", committed, guild.Count())
	if err := res.CheckTotalOrder(guild); err != nil {
		fmt.Println("  total order violated:", err)
		return
	}
	if err := res.CheckAgreement(guild); err != nil {
		fmt.Println("  agreement violated:", err)
		return
	}
	fmt.Println("  total order + agreement hold for the guild ✓")
}

// Run the asymmetric DAG consensus over real TCP connections on loopback:
// the same state machines the simulator drives, deployed as a process
// mesh. Four nodes, threshold trust, synthetic workload; prints the agreed
// log and the wire traffic. Its timing and listen addresses vary from run
// to run, so this example has no output to check; TestConsensusOverTCP
// (internal/transport) runs the same path.
func ExampleNewTCPCluster() {
	const n = 4
	const waves = 5
	trust := asymdag.NewThreshold(n, 1)
	cn := asymdag.NewPRFCoin(7, n)

	nodes := make([]asymdag.FaultBehavior, n)
	raw := make([]*asymdag.ConsensusNode, n)
	for i := 0; i < n; i++ {
		nd := asymdag.NewConsensusNode(asymdag.ConsensusConfig{
			Trust:    trust,
			Coin:     cn,
			Workload: asymdag.SyntheticWorkload{Self: asymdag.ProcessID(i), TxPerBlock: 2},
			MaxRound: 4 * waves,
		})
		nodes[i] = nd
		raw[i] = nd
	}

	cluster, err := asymdag.NewTCPCluster(nodes)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	for i, h := range cluster.Hosts {
		fmt.Printf("node %d listening on %s\n", i+1, h.Addr())
	}
	start := time.Now()
	cluster.Start()

	// Poll (race-free via Inspect) until everyone finished and decided.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for i, h := range cluster.Hosts {
			var round, decided int
			h.Inspect(func() {
				round = raw[i].Round()
				decided = raw[i].DecidedWave()
			})
			if round >= 4*waves && decided > 0 {
				done++
			}
		}
		if done == n {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	fmt.Printf("\nconsensus over TCP finished in %v\n", time.Since(start).Round(time.Millisecond))
	var reference []string
	for i, h := range cluster.Hosts {
		var blocks []string
		var commits int
		h.Inspect(func() {
			blocks = raw[i].DeliveredBlocks()
			commits = len(raw[i].Commits())
		})
		fmt.Printf("node %d: %d waves committed, %d txs delivered\n", i+1, commits, len(blocks))
		if len(blocks) > len(reference) {
			reference = blocks
		}
	}
	fmt.Println("\nfirst transactions of the agreed log:")
	for i := 0; i < len(reference) && i < 6; i++ {
		fmt.Printf("%3d. %s\n", i+1, reference[i])
	}

	// Wire traffic from the transport's per-peer counters: binary frames,
	// batched writes — the bytes here are exactly what sim.MessageSize
	// models for the same messages.
	stats := cluster.Stats()
	fmt.Printf("\nwire traffic: %d msgs in %d frames (%.1f msgs/frame), %d bytes sent\n",
		stats.MessagesSent, stats.FramesSent,
		float64(stats.MessagesSent)/float64(max(stats.FramesSent, 1)), stats.BytesSent)
}

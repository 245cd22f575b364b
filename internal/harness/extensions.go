package harness

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/gather"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/types"
)

// Extension experiments beyond the paper's own artifacts: the §2.4 binding
// gather's extra round, the garbage-collection ablation of the §4.5 memory
// caveat, commit latency, batching, the service's link traffic and the
// adversarial scenario registry. All lists them after the paper's
// artifacts.

// ExpBinding compares Algorithm 3 with its binding variant (E12).
func ExpBinding() string {
	sys := quorum.Counterexample()
	lat := sim.UniformLatency{Min: 1, Max: 10}
	n := sys.N()

	plain := gather.RunCluster(gather.RunConfig{
		Kind: gather.KindConstantRound, Trust: sys, Mode: gather.UsePlain, Latency: lat, Seed: 3,
	})

	nodes := make([]sim.Node, n)
	raw := make([]*gather.BindingNode, n)
	for i := range nodes {
		nd := gather.NewBindingNode(gather.Config{Trust: sys, Input: gather.InputValue(types.ProcessID(i)), Mode: gather.UsePlain})
		nodes[i] = nd
		raw[i] = nd
	}
	r := sim.NewRunner(sim.Config{N: n, Seed: 3, Latency: lat}, nodes)
	r.Run(0)
	delivered := 0
	for _, nd := range raw {
		if _, ok := nd.Delivered(); ok {
			delivered++
		}
	}

	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tdelivered\tmessages\tvirtual time")
	fmt.Fprintf(w, "Algorithm 3\t%d/%d\t%d\t%d\n", len(plain.Outputs), n, plain.Metrics.MessagesSent, plain.EndTime)
	fmt.Fprintf(w, "binding (+1 round)\t%d/%d\t%d\t%d\n", delivered, n, r.Metrics().MessagesSent, r.Now())
	w.Flush()
	b.WriteString("\npaper §2.4 (after Abraham et al.): a binding common core — fixed once the first\n" +
		"correct process delivers, closing Shoup's attack on Tusk — costs one extra round.\n")
	return b.String()
}

// ExpGC compares memory retention with and without garbage collection
// (E13).
func ExpGC() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mode\twaves\tretained vertices (max node)\tdeliveries identical")
	trust := quorum.NewThreshold(4, 1)

	run := func(gc int) (int, RiderResult) {
		res := RunRider(RiderConfig{
			Kind: Asymmetric, Trust: trust, NumWaves: 16, TxPerBlock: 1,
			Seed: 7, CoinSeed: 7, GCDepth: gc,
		})
		return res.maxVertexCount, res
	}
	fullCount, fullRes := run(0)
	gcCount, gcRes := run(3)
	same := true
	for p, nr := range fullRes.Nodes {
		g := gcRes.Nodes[p]
		if len(nr.Deliveries) != len(g.Deliveries) {
			same = false
			break
		}
		for i := range nr.Deliveries {
			if nr.Deliveries[i].Ref != g.Deliveries[i].Ref {
				same = false
				break
			}
		}
	}
	fmt.Fprintf(w, "unbounded (paper)\t16\t%d\t—\n", fullCount)
	fmt.Fprintf(w, "GC depth 3\t16\t%d\t%v\n", gcCount, same)
	w.Flush()
	b.WriteString("\npaper §4.5: DAG-Rider needs unbounded memory for fairness; Bullshark-style GC of\n" +
		"fully delivered rounds bounds retention without changing any delivery.\n")
	return b.String()
}

// representativeNode returns the lowest-PID node's result — a
// deterministic stand-in for "one representative node". (It used to be
// whichever node map iteration yielded first, so repeated runs of the
// same seed could report different figures.)
func representativeNode(nodes map[types.ProcessID]NodeResult) NodeResult {
	best := types.ProcessID(-1)
	for p := range nodes {
		if best < 0 || p < best {
			best = p
		}
	}
	return nodes[best]
}

// ExpLatency measures per-vertex commit latency in rounds — the quantity
// DAG-protocol papers optimize (E14). Latency of a delivered vertex =
// round(committing wave, 4) − vertex round: how many rounds after its
// creation the vertex's transactions became final.
func ExpLatency() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tprotocol\tmean latency (rounds)\tp50\tmax\tvertices")
	for _, spec := range []struct {
		name  string
		kind  RiderKind
		trust quorum.Assumption
	}{
		{"threshold(4,1)", Symmetric, quorum.NewThreshold(4, 1)},
		{"threshold(4,1)", Asymmetric, quorum.NewThreshold(4, 1)},
		{"threshold(7,2)", Symmetric, quorum.NewThreshold(7, 2)},
		{"threshold(7,2)", Asymmetric, quorum.NewThreshold(7, 2)},
	} {
		res := RunRider(RiderConfig{
			Kind: spec.kind, Trust: spec.trust, NumWaves: 12, TxPerBlock: 1,
			Seed: 5, CoinSeed: 5,
		})
		var lats []int
		for _, d := range representativeNode(res.Nodes).Deliveries {
			if d.Ref.Round < 1 {
				continue // genesis
			}
			lats = append(lats, rider.WaveRound(d.Wave, 4)-d.Ref.Round)
		}
		if len(lats) == 0 {
			continue
		}
		sort.Ints(lats)
		sum := 0
		for _, l := range lats {
			sum += l
		}
		fmt.Fprintf(w, "%s\t%s\t%.2f\t%d\t%d\t%d\n",
			spec.name, spec.kind, float64(sum)/float64(len(lats)),
			lats[len(lats)/2], lats[len(lats)-1], len(lats))
	}
	w.Flush()
	b.WriteString("\nlatency is bounded by the wave structure: a round-1 vertex of a committing wave\n" +
		"waits 3 rounds, plus whole skipped waves when the commit rule misses (DAG-Rider's\n" +
		"expected 3/2-wave commit cadence keeps the tail short).\n")
	return b.String()
}

// ExpBatching sweeps the block size and reports throughput — the
// dissemination/ordering decoupling argument (paper §1: DAGs improve
// throughput "by concurrently batching transactions") made measurable
// (E15).
func ExpBatching() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "tx/block\ttx delivered\tvtime\ttx per vtime\tbytes/tx")
	trust := quorum.NewThreshold(4, 1)
	for _, batch := range []int{1, 4, 16, 64} {
		res := RunRider(RiderConfig{
			Kind: Asymmetric, Trust: trust, NumWaves: 8, TxPerBlock: batch,
			Seed: 3, CoinSeed: 3,
		})
		med := len(representativeNode(res.Nodes).Blocks)
		perTime := float64(med) / float64(res.EndTime)
		bytesPerTx := 0.0
		if med > 0 {
			bytesPerTx = float64(res.Metrics.BytesSent) / float64(med)
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%.3f\t%.0f\n", batch, med, res.EndTime, perTime, bytesPerTx)
	}
	w.Flush()
	b.WriteString("\nthroughput scales with the batch while the round/wave cadence (and hence latency)\n" +
		"stays fixed — the decoupling of dissemination from ordering that motivates DAG\n" +
		"protocols (§1). Per-transaction byte cost falls as fixed vertex overhead amortizes.\n")
	return b.String()
}

// ExpTraffic is the traffic ledger of one seed-1 service run on each of
// three systems, shaped as the benchmark's simulator workloads shape them:
// Fig. 1 (sim_asym_n30's run), threshold(7,2) under partition-heal
// (sim_faults_n7's first scenario) and federated(10). For each it prints
// the link sends of every message type, and the link messages and bytes
// in all, per applied command: per command that a replica applied,
// averaged over the replicas. It reads only the run's sim.Metrics, whose
// ByType counts by type the sends MessagesSent counts.
func ExpTraffic() string {
	fed, err := quorum.NewFederated(quorum.FederatedConfig{N: 10, TopTier: 7, TrustedPeers: 2, Tolerance: 2, Seed: 5})
	if err != nil {
		panic(err) // a fixed configuration the package's tests build
	}
	heal, ok := scenario.Find("partition-heal")
	if !ok {
		panic("no built-in scenario partition-heal")
	}
	runs := []struct {
		name string
		cfg  service.Config
	}{
		{"Fig. 1", service.Config{Trust: quorum.Counterexample(), Seed: 1, CoinSeed: 1, StopAfterWaves: 10}},
		{"threshold(7,2) heal", ServiceScenarioConfig(heal,
			service.Config{Trust: quorum.NewThreshold(7, 2), CoinSeed: 1, StopAfterWaves: 8, SnapshotEvery: 1}, 1)},
		{"federated(10)", service.Config{Trust: fed, Seed: 1, CoinSeed: 1, StopAfterWaves: 10}},
	}
	metrics := make([]*sim.Metrics, len(runs))
	commands := make([]float64, len(runs)) // applied commands per replica
	var typs []string
	for i, run := range runs {
		res := service.Run(run.cfg)
		applied := 0
		for _, rep := range res.Replicas {
			applied += rep.Applied
		}
		metrics[i], commands[i] = res.Metrics, float64(applied)/float64(run.cfg.Trust.N())
		for typ := range res.Metrics.ByType {
			if !slices.Contains(typs, typ) {
				typs = append(typs, typ)
			}
		}
	}
	sort.Strings(typs)

	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "per applied command")
	for _, run := range runs {
		fmt.Fprintf(w, "\t%s", run.name)
	}
	row := func(name string, f func(m *sim.Metrics) int) {
		fmt.Fprintf(w, "\n%s", name)
		for i, m := range metrics {
			fmt.Fprintf(w, "\t%.3f", float64(f(m))/commands[i])
		}
	}
	for _, typ := range typs {
		row(typ, func(m *sim.Metrics) int { return m.ByType[typ] })
	}
	row("link messages", func(m *sim.Metrics) int { return m.MessagesSent })
	row("link bytes", func(m *sim.Metrics) int { return m.BytesSent })
	fmt.Fprint(w, "\napplied commands")
	for _, c := range commands {
		fmt.Fprintf(w, "\t%.0f", c)
	}
	fmt.Fprintln(w)
	w.Flush()
	b.WriteString("\nlink sends cross a link: a process's copy to itself is free. A slot of reliable\n" +
		"broadcast is one SEND, its receivers' ECHOs and READYs (*RefMsg: by reference,\n" +
		"without the digest) and R2's FETCH/PAYLOAD; the SEND is its source's ECHO and\n" +
		"READY. core.* are the wave gate's votes.\n")
	return b.String()
}

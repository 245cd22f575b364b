// Command bench is the repository benchmark: two TCP service workloads and
// two simulator workloads, each printing its metrics by name and unit as
// the last line of standard output. See README.md for the definitions.
//
//	go run -C bench . -workload <name|all> -seed <n> -seconds <s> -trace <0|1>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/internal/core"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the same
// names, and bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"commit_rounds_mean", "rounds"},
	{"throughput_tx_s", "tx/s"},
	{"wire_bytes_per_tx", "B"},
	{"msgs_per_tx", "count"},
	{"allocs_per_tx", "count"},
	{"peak_rss_mb", "MiB"},
	{"waves_per_commit", "ratio"},
}

// simMsgTypes are the message types sim.msgs_by_type.* reports.
var simMsgTypes = []string{
	"broadcast.sendMsg", "broadcast.echoMsg", "broadcast.readyMsg",
	"core.ackMsg", "core.readyMsg", "core.confirmMsg",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"failed_share", "ratio"},
		{"cpu_ms_per_ktx", "ms"},
		{"quorum.compile_ms", "ms"},
		{"quorum.tracker_add_ns", "ns"},
		{"quorum.any_quorum_within_ns", "ns"},
		{"wire.encode_ns_per_msg", "ns"},
		{"wire.decode_ns_per_msg", "ns"},
		{"wire.bytes_per_msg", "B"},
		{"transport.msgs_per_frame", "count"},
		{"transport.frames_per_tx", "count"},
		{"transport.connect_ms", "ms"},
		{"transport.write_errors", "count"},
		{"transport.requeued", "count"},
		{"transport.encode_errors", "count"},
		{"transport.flood_msgs_s", "1/s"},
		{"transport.flood_mb_s", "MB/s"},
		{"transport.cpu_share", "ratio"},
		{"broadcast.ns_per_handle.empty", "ns"},
		{"broadcast.ns_per_handle.block", "ns"},
		{"broadcast.msgs_per_slot", "count"},
		{"broadcast.bytes_per_slot.empty", "B"},
		{"broadcast.bytes_per_slot.block", "B"},
		{"broadcast.receive_self_share", "ratio"},
		{"dag.add_ns", "ns"},
		{"dag.strong_path_ns", "ns"},
		{"rider.order_ns_per_vertex", "ns"},
		{"rider.weak_edges_ns", "ns"},
		{"rider.payload_key_ns", "ns"},
		{"core.busy_share", "ratio"},
		{"core.receive_ns.arb_send", "ns"},
		{"core.receive_ns.arb_echo", "ns"},
		{"core.receive_ns.arb_ready", "ns"},
		{"core.receive_ns.ctl", "ns"},
		{"core.receive_ns.coin", "ns"},
		{"core.inflight_p50_ms", "ms"},
		{"core.rounds_s", "1/s"},
		{"core.waves_per_commit", "ratio"},
		{"core.round_spread_max", "rounds"},
		{"core.peak_dag_vertices", "count"},
		{"core.peak_broadcast_slots", "count"},
		{"core.peak_wave_ctls", "count"},
		{"core.buffered_peak", "count"},
		{"gather.alg3_msgs", "count"},
		{"gather.alg3_vt", "vt"},
		{"gather.alg3_wall_ms", "ms"},
		{"service.queue_wait_p50_ms", "ms"},
		{"service.txs_per_block", "count"},
		{"service.apply_ns_per_tx", "ns"},
		{"service.snapshot_ms", "ms"},
		{"service.sim_rejected", "count"},
		{"sim.commit_gap_max_vt", "vt"},
		{"sim.events_s", "1/s"},
		{"sim.runner_setup_ms", "ms"},
		{"sim.parallel_speedup", "ratio"},
		{"scenario.msgs_dropped", "count"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runtime.alloc_bytes_per_tx", "B"},
		{"runtime.gc_cycles", "count"},
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.inspect_wait_p99_ms", "ms"},
		{"trace.overhead_share", "ratio"},
	}
	for _, t := range simMsgTypes {
		defs = append(defs, metricDef{"sim.msgs_by_type." + t, "count"})
	}
	for _, s := range simSpecs {
		for _, scen := range s.scenarios {
			defs = append(defs, metricDef{"scenario.p50_vt." + scen, "vt"})
		}
	}
	return defs
}()

// workloadNames lists the workloads in the order "all" runs them.
func workloadNames() []string {
	var names []string
	for _, s := range tcpSpecs {
		names = append(names, s.name)
	}
	for _, s := range simSpecs {
		names = append(names, s.name)
	}
	return names
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// outcome is what a workload hands back: the metric values by name, the
// operation counts, and notes for the info line.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	notes     map[string]any
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for command keys, the cluster, and the simulator seed set")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	outDir := flag.String("out", "out", "directory for span files")
	// A bare -trace means -trace 1.
	args := os.Args[1:]
	for i, a := range args {
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1")) {
			args[i] = "-trace=1"
		}
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}

	if *workload == "all" {
		for _, name := range workloadNames() {
			// One OS process per workload, so peak_rss_mb is the workload's own.
			cmd := exec.Command(os.Args[0], "-workload", name, "-seed", fmt.Sprint(opt.seed),
				"-seconds", fmt.Sprint(opt.seconds), "-trace", fmt.Sprint(*trace), "-out", opt.outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fatalf("%s: %v", name, err)
			}
		}
		return
	}

	out, err := runWorkload(*workload, opt)
	if err != nil {
		fatalf("%v", err)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !opt.trace && (!ok || v == 0) {
			fatalf("%s: end-to-end metric %s was not measured", *workload, d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	info := map[string]any{
		"workload": *workload, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"host": hostStamp(), "notes": out.notes,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		fatalf("%v", err)
	}
	if err := enc.Encode(res); err != nil {
		fatalf("%v", err)
	}
}

func runWorkload(name string, opt options) (*outcome, error) {
	for i := range tcpSpecs {
		if tcpSpecs[i].name == name {
			return tcpWorkload(&tcpSpecs[i], opt)
		}
	}
	for i := range simSpecs {
		if simSpecs[i].name == name {
			return simWorkload(&simSpecs[i], opt)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// setupReps is how many times a run sets up; setup_s is the median.
const (
	tcpSetupReps = 7
	simSetupReps = 51
)

// shortPass is the window (or seed count) of the two passes of a traced run.
func shortPass(full float64) float64 { return max(1, full/4) }

func tcpWorkload(spec *tcpSpec, opt options) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, notes: map[string]any{
		"injected_one_way_delay_ms": ms(spec.delay),
		"loop":                      map[bool]string{true: "open", false: "closed"}[spec.rate > 0],
	}}
	window := time.Duration(opt.seconds * float64(time.Second))
	if !opt.trace {
		var setups []float64
		for i := 0; i < tcpSetupReps; i++ {
			t0 := time.Now()
			c, err := buildTCP(spec, opt.seed, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			c.close()
		}
		run, err := runTCP(spec, opt.seed, window, nil)
		if err != nil {
			return nil, err
		}
		out.values["setup_s"] = median(setups)
		tcpEndToEnd(out, run)
		return out, nil
	}

	// Traced run: a plain pass and a traced pass of the same short window
	// (their difference is the tracing overhead), then the layer replay.
	window = time.Duration(shortPass(opt.seconds) * float64(time.Second))
	plain, err := runTCP(spec, opt.seed, window, nil)
	if err != nil {
		return nil, err
	}
	trust, err := spec.trust()
	if err != nil {
		return nil, err
	}
	tr := newTracer(spec.name, trust.N())
	run, err := runTCP(spec, opt.seed, window, tr)
	if err != nil {
		return nil, err
	}
	tcpEndToEnd(out, run) // operation counts and notes
	m := map[string]float64{}
	tx := float64(run.slowestApplied)
	m["failed_share"] = ratio(float64(run.failed), float64(run.attempted))
	m["transport.msgs_per_frame"] = ratio(float64(run.stats.MessagesSent), float64(run.stats.FramesSent))
	m["transport.frames_per_tx"] = ratio(float64(run.stats.FramesSent), tx)
	m["transport.connect_ms"] = ms(run.connect)
	m["transport.write_errors"] = float64(run.stats.WriteErrors)
	m["transport.requeued"] = float64(run.stats.Requeued)
	m["transport.encode_errors"] = float64(run.stats.EncodeErrors)
	classes := tr.totals()
	var busy int64
	for _, c := range classes {
		busy += c.total
	}
	m["transport.cpu_share"] = ratio(float64(run.passCPU-time.Duration(busy)-run.genBusy), float64(run.passCPU))
	traceShares(m, classes, float64(run.passWall)*float64(trust.N()))
	m["core.inflight_p50_ms"] = percentile(run.inflight, 0.5)
	m["service.queue_wait_p50_ms"] = percentile(run.queueWait, 0.5)
	m["service.txs_per_block"] = ratio(float64(run.blockTxs), float64(run.blocks))
	m["core.waves_per_commit"] = run.wavesPerCommit
	if k := len(run.samples); k > 1 {
		m["core.rounds_s"] = float64(run.samples[k-1].maxRound-run.samples[0].maxRound) / float64(k-1)
	}
	var peak core.LiveStats
	for _, s := range run.samples {
		m["core.round_spread_max"] = max(m["core.round_spread_max"], float64(s.maxRound-s.minRound))
		raiseLive(&peak, s.live)
	}
	livePeaks(m, peak)
	m["runtime.gc_cpu_share"] = ratio(run.gcCPU, run.cpu.Seconds())
	m["runtime.alloc_bytes_per_tx"] = ratio(float64(run.allocBytes), tx)
	m["runtime.gc_cycles"] = float64(run.gcCycles)
	m["loadgen.late_p99_ms"] = percentile(run.late, 0.99)
	m["loadgen.inspect_wait_p99_ms"] = percentile(run.inspectWait, 0.99)
	m["cpu_ms_per_ktx"] = ratio(ms(plain.cpu), float64(plain.slowestApplied)/1000)
	m["trace.overhead_share"] = ratio(ratio(ms(run.cpu), tx/1000), m["cpu_ms_per_ktx"]) - 1
	if err := layerReplay(m, trust, spec.batch, spec.cmdBytes, true, opt.seed); err != nil {
		return nil, err
	}
	note := fmt.Sprintf("window %v after %v warm-up; spans kept: first %d commands, first %d core.receive/service.apply spans per replica",
		window, warmup, maxCommandSpans, tr.keep)
	if err := tr.write(opt.outDir, hostStamp(), note); err != nil {
		return nil, fmt.Errorf("%s: span file: %w", spec.name, err)
	}
	out.values = m
	return out, nil
}

// tcpEndToEnd turns one pass into the end-to-end metrics.
func tcpEndToEnd(out *outcome, run *tcpRun) {
	tx := float64(run.slowestApplied)
	v := out.values
	v["commit_p50_ms"] = percentile(run.latencies, 0.5)
	v["commit_p99_ms"] = percentile(run.latencies, 0.99)
	v["commit_rounds_mean"] = mean(run.rounds)
	v["throughput_tx_s"] = tx / run.window.Seconds()
	v["wire_bytes_per_tx"] = ratio(float64(run.stats.BytesSent), tx)
	v["msgs_per_tx"] = ratio(float64(run.stats.MessagesSent), tx)
	v["allocs_per_tx"] = ratio(float64(run.mallocs), tx)
	v["peak_rss_mb"] = peakRSSMiB()
	v["waves_per_commit"] = run.wavesPerCommit
	out.attempted, out.failed = run.attempted, run.failed
	out.notes["latency_samples"] = len(run.latencies)
	out.notes["committed_tx_in_window"] = run.slowestApplied
	out.notes["generator_late_p99_ms"] = percentile(run.late, 0.99)
}

// raiseLive raises the fields of peak that the per-layer metrics report to
// those of l.
func raiseLive(peak *core.LiveStats, l core.LiveStats) {
	peak.DAGVertices = max(peak.DAGVertices, l.DAGVertices)
	peak.BroadcastSlots = max(peak.BroadcastSlots, l.BroadcastSlots)
	peak.WaveCtls = max(peak.WaveCtls, l.WaveCtls)
	peak.Buffered = max(peak.Buffered, l.Buffered)
}

func livePeaks(m map[string]float64, peak core.LiveStats) {
	m["core.peak_dag_vertices"] = float64(peak.DAGVertices)
	m["core.peak_broadcast_slots"] = float64(peak.BroadcastSlots)
	m["core.peak_wave_ctls"] = float64(peak.WaveCtls)
	m["core.buffered_peak"] = float64(peak.Buffered)
}

// traceShares fills the metrics every traced run derives from the
// core.receive spans; capacity is the nanoseconds the node goroutines had.
func traceShares(m map[string]float64, classes [numClasses]classTotal, capacity float64) {
	var total, arbSelf int64
	for c, ct := range classes {
		total += ct.total
		if c == classSend || c == classEcho || c == classReady {
			arbSelf += ct.self
		}
		if c != classOther {
			m["core.receive_ns."+classNames[c]] = ratio(float64(ct.self), float64(ct.count))
		}
	}
	m["core.busy_share"] = ratio(float64(total), capacity)
	m["broadcast.receive_self_share"] = ratio(float64(arbSelf), float64(total))
}

func simWorkload(spec *simSpec, opt options) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, notes: map[string]any{
		"injected_one_way_delay_ms": 0,
		"link_latency_vt":           "uniform 1..20",
		"scenarios":                 spec.scenarios,
	}}
	// The simulator is single-threaded (DeliveryWorkers 0). On one P the
	// collector's idle workers cannot spill onto a second vCPU, which on the
	// reference host cut the run-to-run spread of the wall-clock metrics
	// from about 15% to about 3%.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out.notes["gomaxprocs_during_run"] = 1
	count := spec.seedCount(opt.seconds)
	if !opt.trace {
		var setups []float64
		for i := 0; i < simSetupReps; i++ {
			total, err := spec.simSetup(opt.seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, total.Seconds())
		}
		run, err := runSim(spec, opt.seed, count, nil)
		if err != nil {
			return nil, err
		}
		out.values["setup_s"] = median(setups)
		simEndToEnd(out, run)
		return out, nil
	}

	count = spec.seedCount(shortPass(opt.seconds))
	plain, err := runSim(spec, opt.seed, count, nil)
	if err != nil {
		return nil, err
	}
	n := plain.trust.N()
	tr := newTracer(spec.name, n)
	run, err := runSim(spec, opt.seed, count, tr)
	if err != nil {
		return nil, err
	}
	simEndToEnd(out, run)
	m := map[string]float64{}
	tx := run.sum(func(s *simSeed) float64 { return float64(s.committed) })
	m["failed_share"] = ratio(float64(out.failed), float64(out.attempted))
	classes := tr.totals()
	traceShares(m, classes, float64(run.wall))
	rounds := run.sum(func(s *simSeed) float64 { return float64(s.proposedRounds) })
	m["core.rounds_s"] = rounds / float64(n) / run.wall.Seconds()
	m["core.waves_per_commit"] = out.values["waves_per_commit"]
	var peak core.LiveStats
	for _, s := range run.seeds {
		raiseLive(&peak, s.peak)
		m["sim.commit_gap_max_vt"] = max(m["sim.commit_gap_max_vt"], s.gapVT)
	}
	livePeaks(m, peak)
	m["service.txs_per_block"] = ratio(run.sum(func(s *simSeed) float64 { return float64(s.submitted) }), rounds)
	m["service.sim_rejected"] = run.sum(func(s *simSeed) float64 { return float64(s.rejected) })
	m["sim.events_s"] = median(run.each("", func(s *simSeed) float64 { return float64(s.delivered) / s.wall.Seconds() }))
	for _, t := range simMsgTypes {
		m["sim.msgs_by_type."+t] = ratio(run.sum(func(s *simSeed) float64 { return float64(s.byType[t]) }), tx)
	}
	m["scenario.msgs_dropped"] = run.sum(func(s *simSeed) float64 { return float64(s.dropped) })
	for _, scen := range spec.scenarios {
		m["scenario.p50_vt."+scen] = median(run.each(scen, func(s *simSeed) float64 { return s.p50vt }))
	}
	cpu := run.sum(func(s *simSeed) float64 { return s.cpu.Seconds() })
	m["runtime.gc_cpu_share"] = ratio(run.sum(func(s *simSeed) float64 { return s.gcCPU }), cpu)
	m["runtime.alloc_bytes_per_tx"] = ratio(run.sum(func(s *simSeed) float64 { return float64(s.bytes) }), tx)
	m["runtime.gc_cycles"] = run.sum(func(s *simSeed) float64 { return float64(s.gcCycles) })
	plainTx := plain.sum(func(s *simSeed) float64 { return float64(s.committed) })
	plainCPU := plain.sum(func(s *simSeed) float64 { return s.cpu.Seconds() })
	m["cpu_ms_per_ktx"] = ratio(plainCPU*1e3, plainTx/1000)
	m["trace.overhead_share"] = ratio(ratio(cpu, tx), ratio(plainCPU, plainTx)) - 1

	setup, err := spec.simSetup(opt.seed)
	if err != nil {
		return nil, err
	}
	m["sim.runner_setup_ms"] = ms(setup)
	if len(spec.scenarios) == 0 {
		// Parallel delivery on every CPU against serial delivery, first seed
		// only, both with every CPU available to the runtime.
		runtime.GOMAXPROCS(runtime.NumCPU())
		serial, err := spec.runSeed(plain.trust, opt.seed, "", 0, nil)
		if err != nil {
			return nil, err
		}
		par, err := spec.runSeed(plain.trust, opt.seed, "", runtime.NumCPU(), nil)
		if err != nil {
			return nil, err
		}
		runtime.GOMAXPROCS(1)
		m["sim.parallel_speedup"] = ratio(serial.wall.Seconds(), par.wall.Seconds())
	}
	if err := layerReplay(m, plain.trust, simBatchSize, cmdHeader, false, opt.seed); err != nil {
		return nil, err
	}
	note := fmt.Sprintf("%d seeds per scenario from seed %d; spans kept: first %d core.receive/service.apply spans per replica; times are wall clock inside the simulator process",
		count, opt.seed, tr.keep)
	if err := tr.write(opt.outDir, hostStamp(), note); err != nil {
		return nil, fmt.Errorf("%s: span file: %w", spec.name, err)
	}
	out.values = m
	return out, nil
}

// vtSeconds is the simulated duration of one virtual-time unit: the
// simulator workloads read virtual time as milliseconds.
const vtSeconds = 1e-3

// simEndToEnd turns one pass over the seed set into the end-to-end metrics.
// Latency and throughput are in simulated time, so they are exact.
func simEndToEnd(out *outcome, run *simRun) {
	tx := run.sum(func(s *simSeed) float64 { return float64(s.committed) })
	var latencies, rounds []float64
	for _, s := range run.seeds {
		latencies = append(latencies, s.latencies...)
		rounds = append(rounds, s.rounds...)
	}
	v := out.values
	v["commit_p50_ms"] = percentileOfInts(latencies, 0.5) * vtSeconds * 1e3
	v["commit_p99_ms"] = percentileOfInts(latencies, 0.99) * vtSeconds * 1e3
	v["commit_rounds_mean"] = mean(rounds)
	v["throughput_tx_s"] = ratio(tx, run.sum(func(s *simSeed) float64 { return s.endVT })*vtSeconds)
	v["wire_bytes_per_tx"] = ratio(run.sum(func(s *simSeed) float64 { return float64(s.wire) }), tx)
	v["msgs_per_tx"] = ratio(run.sum(func(s *simSeed) float64 { return float64(s.msgs) }), tx)
	v["allocs_per_tx"] = ratio(run.sum(func(s *simSeed) float64 { return float64(s.mallocs) }), tx)
	v["peak_rss_mb"] = peakRSSMiB()
	v["waves_per_commit"] = ratio(run.sum(func(s *simSeed) float64 { return float64(s.waves) }),
		run.sum(func(s *simSeed) float64 { return float64(s.commits) }))
	out.failed = int(run.sum(func(s *simSeed) float64 { return float64(s.rejected) }))
	out.attempted = out.failed + int(run.sum(func(s *simSeed) float64 { return float64(s.submitted) }))
	out.notes["seed_runs"] = len(run.seeds)
	out.notes["latency_samples"] = len(latencies)
	out.notes["committed_tx"] = int(tx)
	out.notes["waves_per_commit_paper_bound"] = paperBound(run.trust)
	out.notes["simulated_time"] = "1 virtual-time unit = 1 ms; links uniform 1..20 ms, processing free"
	out.notes["seed_wall_s_total"] = run.wall.Seconds()
}

package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, names[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], command %s [%s]",
				i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], command %s [%s]",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// exactOnSim are the end-to-end metrics that are pure functions of
// (--seed, --seconds) on the simulator workloads.
var exactOnSim = []string{"commit_p50_ms", "commit_p99_ms", "commit_rounds_mean", "throughput_tx_s",
	"wire_bytes_per_tx", "msgs_per_tx", "waves_per_commit"}

func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	for _, name := range workloadNames() {
		out, err := runWorkload(name, options{seed: 1, seconds: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.attempted < 1 || out.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", name, out.attempted, out.failed)
		}
		for _, d := range endToEnd {
			if v := out.values[d.name]; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", name, d.name, v)
			}
		}
	}
}

func TestSimulatorMetricsAreExactPerSeed(t *testing.T) {
	const name = "sim_faults_n7"
	run := func(seed int64) map[string]float64 {
		out, err := runWorkload(name, options{seed: seed, seconds: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		return out.values
	}
	a, b, c := run(1), run(1), run(2)
	for _, m := range exactOnSim {
		if a[m] != b[m] {
			t.Errorf("%s: two runs of seed 1 gave %v and %v", m, a[m], b[m])
		}
		if a[m] == c[m] && m != "waves_per_commit" {
			t.Errorf("%s: seeds 1 and 2 both gave %v", m, a[m])
		}
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"tcp_paced_n4", "sim_faults_n7"} {
		out, err := runWorkload(name, options{seed: 1, seconds: 1, trace: true, outDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k := range out.values {
			found := false
			for _, d := range perLayer {
				found = found || d.name == k
			}
			if !found {
				t.Errorf("%s: reports %s, which is not a per-layer metric", name, k)
			}
		}
		for _, m := range []string{"quorum.tracker_add_ns", "wire.encode_ns_per_msg", "broadcast.msgs_per_slot",
			"dag.add_ns", "core.busy_share", "core.receive_ns.arb_echo", "service.apply_ns_per_tx", "gather.alg3_msgs"} {
			if out.values[m] <= 0 {
				t.Errorf("%s: %s = %v", name, m, out.values[m])
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// The four spans of a command are contiguous, so they must add up to the
// latency the run measured for it.
func TestCommandSpansSumToTheMeasuredLatency(t *testing.T) {
	spec := &tcpSpecs[0]
	tr := newTracer(spec.name, 4)
	run, err := runTCP(spec, 3, time.Second, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.commands) == 0 || len(tr.commands)%4 != 0 {
		t.Fatalf("%d command spans", len(tr.commands))
	}
	want := map[float64]int{}
	for _, l := range run.latencies {
		want[l]++
	}
	for i := 0; i < len(tr.commands); i += 4 {
		var sum int64
		for j, s := range tr.commands[i : i+4] {
			if s.ID != tr.commands[i].ID || s.End < s.Start {
				t.Fatalf("span %d of command %s: %+v", j, tr.commands[i].ID, s)
			}
			if j > 0 && s.Start != tr.commands[i+j-1].End {
				t.Fatalf("command %s: %s does not start where %s ends", s.ID, s.Name, tr.commands[i+j-1].Name)
			}
			sum += s.End - s.Start
		}
		if want[float64(sum)/1e6] == 0 {
			t.Fatalf("command %s: spans add up to %d ns, which is not a measured latency", tr.commands[i].ID, sum)
		}
	}
}

func TestOracleTripsOnACorruptedReplicaHash(t *testing.T) {
	good := [][sha256.Size]byte{sha256.Sum256([]byte("1000 txs")), sha256.Sum256([]byte("2000 txs"))}
	if err := compareCheckpoints("w", [][][sha256.Size]byte{good, good, good[:1]}); err != nil {
		t.Fatalf("matching checkpoints: %v", err)
	}
	bad := [][sha256.Size]byte{good[0], sha256.Sum256([]byte("a different order"))}
	if err := compareCheckpoints("w", [][][sha256.Size]byte{good, good, bad}); err == nil {
		t.Error("a replica with a different hash at checkpoint 2 passed")
	}
	if err := compareCheckpoints("w", [][][sha256.Size]byte{good, nil}); err == nil {
		t.Error("a run with no shared checkpoint passed")
	}
	var bits []uint64
	if !markSeen(&bits, 70) || markSeen(&bits, 70) {
		t.Error("markSeen did not report the second apply of a command")
	}
}

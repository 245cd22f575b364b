package asymdag_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	asymdag "repro"
	"repro/internal/sim"
)

// fifo is the latency of the runs below. It is fixed per link, so each
// link delivers in the order it was sent, as TCP does, and a READY by
// reference never overtakes its voter's ECHO. It differs between links
// (1..11), so some processes count a voter's ECHO before they send their
// own, and ECHOs by reference occur in both runs below.
var fifo = sim.LatencyFunc(func(from, to asymdag.ProcessID, _ sim.Message, _ sim.VirtualTime, _ *rand.Rand) sim.VirtualTime {
	return sim.VirtualTime(1 + (5*int(from)+3*int(to))%11)
})

// runRecord is what a run shows: the network's message and delivery
// counts, its end time, a digest of every process's output (ordered log,
// commits and round, or service snapshots and final state), its bytes, and
// the ECHOs and READYs that went by reference.
type runRecord struct {
	sent, delivered     int
	end                 int64
	output              string
	bytes               int
	echoRefs, readyRefs int
}

// record reads a run's figures out of its metrics and output digest.
func record(m *sim.Metrics, end sim.VirtualTime, output []byte) runRecord {
	sum := sha256.Sum256(output)
	return runRecord{
		sent: m.MessagesSent, delivered: m.MessagesDelivered, end: int64(end),
		output: hex.EncodeToString(sum[:8]), bytes: m.BytesSent,
		echoRefs: m.ByType["broadcast.echoRefMsg"], readyRefs: m.ByType["broadcast.readyRefMsg"],
	}
}

// clusterRecord is ExampleNewCluster's run over FIFO links.
func clusterRecord() runRecord {
	cluster := asymdag.NewCluster(asymdag.ClusterConfig{Trust: asymdag.NewThreshold(4, 1), NumWaves: 10, Seed: 42, CoinSeed: 7, Latency: fifo})
	cluster.Submit(0, "alice->bob:5", "alice->carol:2")
	cluster.Submit(1, "bob->dave:1")
	cluster.Submit(2, "carol->alice:9", "dave->bob:4")
	cluster.Submit(3, "erin->frank:8")
	res := cluster.Run()
	var out []byte
	for p := 0; p < 4; p++ {
		nr := res.Nodes[asymdag.ProcessID(p)]
		out = fmt.Appendf(out, "%d %q %v %d\n", p, nr.Blocks, nr.Commits, nr.Round)
	}
	return record(res.Metrics, res.EndTime, out)
}

// serviceRecord is a Fig. 1 service run, seed 1, over FIFO links.
func serviceRecord() runRecord {
	cfg := asymdag.ServiceConfig{Trust: asymdag.Counterexample(), Seed: 1, CoinSeed: 2, StopAfterWaves: 4, Latency: fifo}
	res := asymdag.RunService(cfg)
	var out []byte
	for p := 0; p < cfg.Trust.N(); p++ {
		rep := res.Replicas[asymdag.ProcessID(p)]
		for _, s := range rep.Snapshots {
			out = fmt.Appendf(out, "%d %d %d %d %x\n", p, s.Wave, s.Applied, s.Time, s.State)
		}
		out = fmt.Appendf(out, "%d %x\n", p, rep.FinalState)
	}
	return record(res.Metrics, res.EndTime, out)
}

// TestVotesByReferenceSaveOnlyDigestBytes is the byte-accounting oracle
// of READYs by reference. The figures below were recorded when a READY
// went by reference only to a process whose ECHO for its digest the voter
// had counted. Now one goes by reference to every receiver of the voter's
// own ECHO for its digest. Over FIFO links no READY by reference is ever
// held, so nothing but the form of some READYs moves: the message and
// delivery counts, the end time, every output and the ECHOs by reference
// (some in each run, so their bytes are covered too) are the recorded
// ones, and the bytes are the recorded ones less exactly
// 32 for each READY that moved from full to by-reference form, net of
// those that moved the other way.
func TestVotesByReferenceSaveOnlyDigestBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() runRecord
		was  runRecord
	}{
		{"ExampleNewCluster", clusterRecord, runRecord{sent: 4680, delivered: 6240, end: 1118, output: "8febc9eb00f2122f", bytes: 89487, echoRefs: 280, readyRefs: 1400}},
		{"Fig. 1 service, seed 1", serviceRecord, runRecord{sent: 181398, delivered: 195750, end: 627, output: "07aa0828bd5e33b0", bytes: 9405516, echoRefs: 2265, readyRefs: 15152}},
	} {
		got := tc.run()
		if got.sent != tc.was.sent || got.delivered != tc.was.delivered || got.end != tc.was.end || got.output != tc.was.output {
			t.Errorf("%s: %d sent, %d delivered, end %d, output %s; recorded %d, %d, %d, %s",
				tc.name, got.sent, got.delivered, got.end, got.output, tc.was.sent, tc.was.delivered, tc.was.end, tc.was.output)
		}
		moved := got.readyRefs - tc.was.readyRefs
		if got.echoRefs != tc.was.echoRefs || got.echoRefs == 0 || moved <= 0 || got.bytes != tc.was.bytes-32*moved {
			t.Errorf("%s: %d bytes, %d ECHOs and %d READYs by reference; want the recorded %d (> 0) ECHOs, more than the recorded %d READYs, and the recorded %d bytes less 32 per READY moved to by-reference form (%d)",
				tc.name, got.bytes, got.echoRefs, got.readyRefs, tc.was.echoRefs, tc.was.readyRefs, tc.was.bytes, tc.was.bytes-32*moved)
		}
	}
}

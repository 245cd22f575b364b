package asymdag_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	asymdag "repro"
	"repro/internal/sim"
)

// runRecord is what a run shows apart from its byte count: the network's
// message and delivery counts, its end time, and a digest of every
// process's output (ordered log, commits and round, or service snapshots
// and final state). refs counts the votes that went by reference.
type runRecord struct {
	sent, delivered int
	end             int64
	output          string
	bytes, refs     int
}

// record reads a run's figures out of its metrics and output digest.
func record(m *sim.Metrics, end sim.VirtualTime, output []byte) runRecord {
	sum := sha256.Sum256(output)
	return runRecord{
		sent: m.MessagesSent, delivered: m.MessagesDelivered, end: int64(end),
		output: hex.EncodeToString(sum[:8]),
		bytes:  m.BytesSent, refs: m.ByType["broadcast.echoRefMsg"] + m.ByType["broadcast.readyRefMsg"],
	}
}

// clusterRecord is ExampleNewCluster's run.
func clusterRecord() runRecord {
	cluster := asymdag.NewCluster(asymdag.ClusterConfig{Trust: asymdag.NewThreshold(4, 1), NumWaves: 10, Seed: 42, CoinSeed: 7})
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

// serviceRecord is a Fig. 1 service run, seed 1.
func serviceRecord() runRecord {
	cfg := asymdag.ServiceConfig{Trust: asymdag.Counterexample(), Seed: 1, CoinSeed: 2, StopAfterWaves: 4}
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
// of votes by reference. The figures below were recorded before votes
// went by reference, when every ECHO and READY carried its digest. Now
// some go by reference: the message and delivery counts, the end time and
// every output are the recorded ones, and the bytes are the recorded ones
// less exactly the 32 digest bytes of each vote by reference.
func TestVotesByReferenceSaveOnlyDigestBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() runRecord
		was  runRecord
	}{
		{"ExampleNewCluster", clusterRecord, runRecord{sent: 4728, delivered: 6288, end: 1887, output: "1c97bfeb03e5dbfe", bytes: 144231}},
		{"Fig. 1 service, seed 1", serviceRecord, runRecord{sent: 180545, delivered: 193020, end: 1073, output: "5495f08ae43dc530", bytes: 10030907}},
	} {
		got := tc.run()
		if got.sent != tc.was.sent || got.delivered != tc.was.delivered || got.end != tc.was.end || got.output != tc.was.output {
			t.Errorf("%s: %d sent, %d delivered, end %d, output %s; recorded %d, %d, %d, %s",
				tc.name, got.sent, got.delivered, got.end, got.output, tc.was.sent, tc.was.delivered, tc.was.end, tc.was.output)
		}
		if got.refs == 0 || got.bytes+32*got.refs != tc.was.bytes {
			t.Errorf("%s: %d bytes and %d votes by reference, want the recorded %d bytes less 32 per vote by reference",
				tc.name, got.bytes, got.refs, tc.was.bytes)
		}
	}
}

package asymdag_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	asymdag "repro"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/sim"
	"repro/internal/wire"
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
// the ECHOs and READYs that went by reference, and the bytes strong-edge
// bitmaps saved (see bitmapSavings).
type runRecord struct {
	sent, delivered     int
	end                 int64
	output              string
	bytes               int
	echoRefs, readyRefs int
	bitmapSaved         int
}

// record reads a run's figures out of its metrics and output digest.
func record(m *sim.Metrics, end sim.VirtualTime, output []byte, bitmapSaved int) runRecord {
	sum := sha256.Sum256(output)
	return runRecord{
		sent: m.MessagesSent, delivered: m.MessagesDelivered, end: int64(end),
		output: hex.EncodeToString(sum[:8]), bytes: m.BytesSent,
		echoRefs: m.ByType["broadcast.echoRefMsg"], readyRefs: m.ByType["broadcast.readyRefMsg"],
		bitmapSaved: bitmapSaved,
	}
}

// bitmapSavings returns fifo, which also adds to *saved, for each send of
// a vertex to another process (a SEND or a fetch reply, whose Payload is
// a rider.VertexPayload), what its strong edges took as a counted list of
// [source][round] refs less what they take as a counted bitmap.
func bitmapSavings(saved *int) sim.LatencyFunc {
	return func(from, to asymdag.ProcessID, msg sim.Message, now sim.VirtualTime, rng *rand.Rand) sim.VirtualTime {
		if m := reflect.ValueOf(msg); from != to && m.Kind() == reflect.Struct {
			if f := m.FieldByName("Payload"); f.IsValid() {
				if p, ok := f.Interface().(rider.VertexPayload); ok {
					list, k := wire.UvarintSize(uint64(len(p.V.StrongEdges))), 0
					for _, e := range p.V.StrongEdges {
						list += wire.UvarintSize(uint64(e.Source)) + wire.UvarintSize(uint64(e.Round))
						k = int(e.Source)/8 + 1
					}
					*saved += list - wire.UvarintSize(uint64(k)) - k
				}
			}
		}
		return fifo(from, to, msg, now, rng)
	}
}

// clusterRecord is ExampleNewCluster's run over FIFO links.
func clusterRecord() runRecord {
	var saved int
	cluster := asymdag.NewCluster(asymdag.ClusterConfig{Trust: asymdag.NewThreshold(4, 1), NumWaves: 10, Seed: 42, CoinSeed: 7, Latency: bitmapSavings(&saved)})
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
	return record(res.Metrics, res.EndTime, out, saved)
}

// serviceRecord is a Fig. 1 service run, seed 1, over FIFO links.
func serviceRecord() runRecord {
	var saved int
	cfg := asymdag.ServiceConfig{Trust: asymdag.Counterexample(), Seed: 1, CoinSeed: 2, StopAfterWaves: 4, Latency: bitmapSavings(&saved)}
	res := asymdag.RunService(cfg)
	var out []byte
	for p := 0; p < cfg.Trust.N(); p++ {
		rep := res.Replicas[asymdag.ProcessID(p)]
		for _, s := range rep.Snapshots {
			out = fmt.Appendf(out, "%d %d %d %d %x\n", p, s.Wave, s.Applied, s.Time, s.State)
		}
		out = fmt.Appendf(out, "%d %x\n", p, rep.FinalState)
	}
	return record(res.Metrics, res.EndTime, out, saved)
}

// TestVotesByReferenceSaveOnlyDigestBytes is the byte-accounting oracle
// of votes by reference. It began as a chain of identities: when READYs
// by reference went to every receiver of the voter's own ECHO, and when a
// vertex's strong edges came to travel as a bitmap over round−1, no
// message count, delivery time or output moved over FIFO links, and the
// bytes fell by exactly 32 per READY that changed form and by what each
// bitmap saved. The chain restarts at the figures below, recorded when a
// SEND became its source's ECHO. That change takes the source's ECHO out
// of every slot, so each receiver counts the source's vote on the SEND's
// arrival instead of an ECHO's: quorums complete earlier over FIFO links
// too, and the schedule moves, not only the forms. A later change that
// only changes forms restates these figures as identities again. The runs
// must still send ECHOs and READYs by reference, and save bytes with
// strong-edge bitmaps, so that the bytes of all three are covered.
func TestVotesByReferenceSaveOnlyDigestBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() runRecord
		want runRecord
	}{
		{"ExampleNewCluster", clusterRecord, runRecord{sent: 4200, delivered: 5600, end: 1070, output: "4d4716d08211efa4", bytes: 40379, echoRefs: 680, readyRefs: 1920, bitmapSaved: 2664}},
		{"Fig. 1 service, seed 1", serviceRecord, runRecord{sent: 177509, delivered: 192125, end: 616, output: "b2c1abe9bcc71166", bytes: 6385789, echoRefs: 2735, readyRefs: 81120, bitmapSaved: 747504}},
	} {
		got := tc.run()
		if got != tc.want || got.echoRefs == 0 || got.readyRefs == 0 || got.bitmapSaved <= 0 {
			t.Errorf("%s: %+v; recorded %+v, with some ECHOs and READYs by reference and some bytes saved by bitmaps", tc.name, got, tc.want)
		}
	}
}

// TestEchoesCrossVotePairsLessSourceAudience is the count oracle of the
// SEND as its source's ECHO, on quiescent runs: ExampleNewCluster's (its
// trust, seeds and default latency) and a Fig. 1 cluster. Every process
// but a slot's source echoes it once, to its audience, so a slot's ECHOs,
// in full or by reference, cross quorum.VotePairs links less the source's
// audience but itself. Under threshold trust that is (n−1)(n−1) per slot:
// n−1 times the SEND's link sends.
func TestEchoesCrossVotePairsLessSourceAudience(t *testing.T) {
	for _, tc := range []struct {
		name           string
		trust          asymdag.Assumption
		waves          int
		seed, coinSeed int64
	}{
		{"ExampleNewCluster", asymdag.NewThreshold(4, 1), 10, 42, 7},
		{"Fig. 1", asymdag.Counterexample(), 2, 1, 2},
	} {
		n := tc.trust.N()
		sends := make([]int, n) // link sends of SENDs, by source
		echoes := 0
		uniform := sim.UniformLatency{Min: 1, Max: 20} // the cluster's default
		tap := sim.LatencyFunc(func(from, to asymdag.ProcessID, msg sim.Message, now sim.VirtualTime, rng *rand.Rand) sim.VirtualTime {
			if from != to {
				switch fmt.Sprintf("%T", msg) {
				case "broadcast.sendMsg":
					sends[from]++
				case "broadcast.echoMsg", "broadcast.echoRefMsg":
					echoes++
				}
			}
			return uniform.Delay(from, to, msg, now, rng)
		})
		cluster := asymdag.NewCluster(asymdag.ClusterConfig{Trust: tc.trust, NumWaves: tc.waves, Seed: tc.seed, CoinSeed: tc.coinSeed, Latency: tap})
		if res := cluster.Run(); res.HitLimit {
			t.Fatalf("%s: the run hit the event budget", tc.name)
		}
		want, total := 0, 0
		pairs := quorum.VotePairs(tc.trust)
		for src, k := range sends {
			if k%(n-1) != 0 {
				t.Fatalf("%s: %v's SENDs crossed %d links, not n−1 = %d per slot", tc.name, src, k, n-1)
			}
			audience := 0
			for p := range n {
				if p != src && tc.trust.Counts(asymdag.ProcessID(p), asymdag.ProcessID(src)) {
					audience++
				}
			}
			want += k / (n - 1) * (pairs - audience)
			total += k
		}
		if echoes != want {
			t.Fatalf("%s: ECHOs crossed %d links, want Σ over slots of VotePairs %d less the source's audience: %d", tc.name, echoes, pairs, want)
		}
		t.Logf("%s: %d SEND and %d ECHO link sends", tc.name, total, echoes)
	}
}

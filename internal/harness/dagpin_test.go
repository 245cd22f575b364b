package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/dag"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

// riderDigest hashes every correct node's Deliveries() and Commits(), in
// process order, field by field.
func riderDigest(res RiderResult) string {
	h := sha256.New()
	for p := 0; p < res.Config.Trust.N(); p++ {
		nr, ok := res.Nodes[types.ProcessID(p)]
		if !ok {
			continue
		}
		fmt.Fprintf(h, "node %d\n", p)
		for _, d := range nr.Deliveries {
			fmt.Fprintf(h, "d %d %d %d %d %q\n", d.Ref.Source, d.Ref.Round, d.Wave, d.Time, d.Txs)
		}
		for _, c := range nr.Commits {
			fmt.Fprintf(h, "c %d %d %d %d %d\n", c.Wave, c.Leader.Source, c.Leader.Round, c.Time, c.Round)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRiderRunsMatchRecordedDigests pins what both node kinds deliver and
// commit on fixed seeds. The digests were recorded with the map-based DAG
// (per-query visited maps, rounds as maps, sorted causal histories) that
// the dense-row DAG replaced; internal/rider's reference_test.go keeps
// that implementation for the query-level differential tests. They were
// re-recorded when a SEND became its source's ECHO, which takes one ECHO
// per receiver out of every slot and so moves every run's schedule, and
// again when it became its source's READY too, which takes the source's
// READYs and every ECHO to the source out of every slot. A
// digest that moves means a DAG query changed the protocol's weak edges,
// commit decisions or delivery order.
func TestRiderRunsMatchRecordedDigests(t *testing.T) {
	fed, err := quorum.NewFederated(quorum.FederatedConfig{N: 10, TopTier: 7, TrustedPeers: 2, Tolerance: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	slow := sim.UniformLatency{Min: 1, Max: 40}
	cases := []struct {
		name string
		cfg  RiderConfig
		want string
	}{
		{"asym-n4", RiderConfig{Kind: Asymmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 10, TxPerBlock: 1, Seed: 1, CoinSeed: 2, Latency: slow}, "8b831b20f553dce4bbcc22ddfeea407fe9afd928a3bcd8f688e0efd823fbd27f"},
		{"asym-n7-gc", RiderConfig{Kind: Asymmetric, Trust: quorum.NewThreshold(7, 2), NumWaves: 12, TxPerBlock: 1, Seed: 3, CoinSeed: 4, Latency: slow, GCDepth: 4}, "c3da96bb67e08d92690de891573d3a03036f2959caf7c97e355b64a8df56a9c7"},
		{"asym-fed10-revealed", RiderConfig{Kind: Asymmetric, Trust: fed, NumWaves: 6, TxPerBlock: 1, Seed: 5, CoinSeed: 6, RevealedCoin: true}, "ed799a90912952ae7bb8dce769ebe7f29dd1676796d11615f132c02c531559eb"},
		{"asym-fig1", RiderConfig{Kind: Asymmetric, Trust: quorum.Counterexample(), NumWaves: 3, TxPerBlock: 1, Seed: 7, CoinSeed: 8}, "5b89368d9efa30ddb74cc40c7a86571690f2de36c546de9c167873840c7f6d9a"},
		{"sym-n4", RiderConfig{Kind: Symmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 10, TxPerBlock: 1, Seed: 9, CoinSeed: 10, Latency: slow}, "f98b8094176218d71f47fa96b20b223e2669a0e0e2de06b709f80e29066e60ec"},
		{"sym-n7-crash", RiderConfig{Kind: Symmetric, Trust: quorum.NewThreshold(7, 2), NumWaves: 8, TxPerBlock: 1, Seed: 11, CoinSeed: 12, Latency: slow,
			Scenario: &scenario.Scenario{Faults: []scenario.NodeFault{scenario.Mute(6)}}}, "78a1de45da7e87be115cb292d583ea54e304640f155aab2bb0ea65e144ddb353"},
	}
	for _, c := range cases {
		res := RunRider(c.cfg)
		if got := riderDigest(res); got != c.want {
			t.Errorf("%s: digest %s, recorded %s", c.name, got, c.want)
		}
	}
}

// malformedVertexSender is a Byzantine process that runs reliable broadcast
// honestly, so correct processes do deliver its round-1 vertex, but gives
// that vertex an edge no correct process would write.
type malformedVertexSender struct {
	trust quorum.Assumption
	edit  func(genesis []dag.VertexRef) (strong, weak []dag.VertexRef)
	arb   *broadcast.Reliable
}

func (b *malformedVertexSender) Init(env sim.Env) {
	b.arb = broadcast.NewReliable(env.Self(), b.trust, func(sim.Env, broadcast.Slot, broadcast.Payload) {})
	var strong []dag.VertexRef
	for _, g := range rider.Genesis(env.N()) {
		strong = append(strong, g.Ref())
	}
	strong, weak := b.edit(strong)
	v := &dag.Vertex{Source: env.Self(), Round: 1, Block: []string{"evil"}, StrongEdges: strong, WeakEdges: weak}
	b.arb.Broadcast(env, 1, rider.NewVertexPayload(v))
}

func (b *malformedVertexSender) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	b.arb.Handle(env, from, msg)
}

// TestMalformedVertexEdgesRejected: a vertex whose edge names a source
// outside [0, n), repeats a ref, or points to a wrong round, or whose
// strong edges cover no quorum, reaches every correct process through
// reliable broadcast and must be dropped there, by both node kinds,
// without stalling or crashing anyone. A strong edge to source 99 at n=4
// used to panic inside types.Set, and a weak edge to source −1 inside the
// vertex digest's varint encoder.
func TestMalformedVertexEdgesRejected(t *testing.T) {
	type edit = func([]dag.VertexRef) (strong, weak []dag.VertexRef)
	edits := []struct {
		name string
		edit edit
	}{
		{"strong source 99", func(s []dag.VertexRef) ([]dag.VertexRef, []dag.VertexRef) {
			return append(s, dag.VertexRef{Source: 99, Round: 0}), nil
		}},
		{"duplicate strong ref", func(s []dag.VertexRef) ([]dag.VertexRef, []dag.VertexRef) {
			return append(s, s[len(s)-1]), nil
		}},
		{"weak edge to the strong round", func(s []dag.VertexRef) ([]dag.VertexRef, []dag.VertexRef) {
			return s[1:], s[:1]
		}},
		{"weak source -1", func(s []dag.VertexRef) ([]dag.VertexRef, []dag.VertexRef) {
			return s, []dag.VertexRef{{Source: -1, Round: 0}}
		}},
		// Well shaped, but n−f−1 = 2 strong edges cover no quorum.
		{"too few strong edges", func(s []dag.VertexRef) ([]dag.VertexRef, []dag.VertexRef) {
			return s[:2], nil
		}},
	}
	for _, kind := range []RiderKind{Asymmetric, Symmetric} {
		for _, e := range edits {
			trust := quorum.NewThreshold(4, 1)
			res := RunRider(RiderConfig{
				Kind: kind, Trust: trust, NumWaves: 4, TxPerBlock: 1, Seed: 2, CoinSeed: 3,
				Scenario: &scenario.Scenario{Faults: []scenario.NodeFault{{
					P: 3, Wrap: func(sim.Node) sim.Node { return &malformedVertexSender{trust: trust, edit: e.edit} },
				}}},
			})
			correct := types.NewSetOf(4, 0, 1, 2)
			if err := res.CheckAgreement(correct); err != nil {
				t.Errorf("%v, %s: %v", kind, e.name, err)
			}
			for _, p := range correct.Members() {
				nr := res.Nodes[p]
				if nr.Round < 16 {
					t.Errorf("%v, %s: %v stalled at round %d", kind, e.name, p, nr.Round)
				}
				for _, d := range nr.Deliveries {
					if d.Ref.Source == 3 && d.Ref.Round > 0 {
						t.Errorf("%v, %s: %v delivered the malformed vertex %v", kind, e.name, p, d.Ref)
					}
				}
			}
		}
	}
}

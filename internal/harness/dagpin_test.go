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
// per receiver out of every slot and so moves every run's schedule. A
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
		{"asym-n4", RiderConfig{Kind: Asymmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 10, TxPerBlock: 1, Seed: 1, CoinSeed: 2, Latency: slow}, "5399431f0e79056ee0013f444971a4ca9da37008e6964b4a8d2d59002dee01cb"},
		{"asym-n7-gc", RiderConfig{Kind: Asymmetric, Trust: quorum.NewThreshold(7, 2), NumWaves: 12, TxPerBlock: 1, Seed: 3, CoinSeed: 4, Latency: slow, GCDepth: 4}, "2a6e69cff4f589efe1d5c340e78e3fb3fab843764a4a0aff8c2666388f010b65"},
		{"asym-fed10-revealed", RiderConfig{Kind: Asymmetric, Trust: fed, NumWaves: 6, TxPerBlock: 1, Seed: 5, CoinSeed: 6, RevealedCoin: true}, "d609966217682023ececc4f9bc2eeb533286aa1370d1266760923f0ac669c801"},
		{"asym-fig1", RiderConfig{Kind: Asymmetric, Trust: quorum.Counterexample(), NumWaves: 3, TxPerBlock: 1, Seed: 7, CoinSeed: 8}, "9e2271abc9ab1626218b3d33d21878ae461410f7b86a120225f0a9850ac93533"},
		{"sym-n4", RiderConfig{Kind: Symmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 10, TxPerBlock: 1, Seed: 9, CoinSeed: 10, Latency: slow}, "9715c692e9eabc187b62b4187f82bacbe051e65eea8adc697f9d011cb3d61b2d"},
		{"sym-n7-crash", RiderConfig{Kind: Symmetric, Trust: quorum.NewThreshold(7, 2), NumWaves: 8, TxPerBlock: 1, Seed: 11, CoinSeed: 12, Latency: slow,
			Scenario: &scenario.Scenario{Faults: []scenario.NodeFault{scenario.Mute(6)}}}, "7dd62777f332b416639168ea714c54437c73435cd5d619e60be823500671f449"},
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

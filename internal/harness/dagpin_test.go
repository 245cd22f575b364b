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
// that implementation for the query-level differential tests. A digest
// that moves means a DAG query changed the protocol's weak edges, commit
// decisions or delivery order.
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
		{"asym-n4", RiderConfig{Kind: Asymmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 10, TxPerBlock: 1, Seed: 1, CoinSeed: 2, Latency: slow}, "f53d3831a57c562a6ebbb40c7128f2476791b840c77b8efa20011e8f41fd348e"},
		{"asym-n7-gc", RiderConfig{Kind: Asymmetric, Trust: quorum.NewThreshold(7, 2), NumWaves: 12, TxPerBlock: 1, Seed: 3, CoinSeed: 4, Latency: slow, GCDepth: 4}, "9657aa7b8e732e9a6fd62150809e5d349a46c51a3c8bb00dbe97677f219691cc"},
		{"asym-fed10-revealed", RiderConfig{Kind: Asymmetric, Trust: fed, NumWaves: 6, TxPerBlock: 1, Seed: 5, CoinSeed: 6, RevealedCoin: true}, "6dbb3ef14d38936d7e2989e8288d6fe17687e5736110cd03dcd4a7dc492e6186"},
		{"asym-fig1", RiderConfig{Kind: Asymmetric, Trust: quorum.Counterexample(), NumWaves: 3, TxPerBlock: 1, Seed: 7, CoinSeed: 8}, "3343a32237ced13ac931ebd1c30b73ace5c5e5f09bcd633fbd2871f41974aa8d"},
		{"sym-n4", RiderConfig{Kind: Symmetric, Trust: quorum.NewThreshold(4, 1), NumWaves: 10, TxPerBlock: 1, Seed: 9, CoinSeed: 10, Latency: slow}, "a6c3d05d883ec97d295da3fd930a46a343f4dfe48bf46df7934f460e7258938d"},
		{"sym-n7-crash", RiderConfig{Kind: Symmetric, Trust: quorum.NewThreshold(7, 2), NumWaves: 8, TxPerBlock: 1, Seed: 11, CoinSeed: 12, Latency: slow,
			Scenario: &scenario.Scenario{Faults: []scenario.NodeFault{scenario.Mute(6)}}}, "64351c38f873451b0f190a64d3ad96968bc55af611b42d83e374e983122fa036"},
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

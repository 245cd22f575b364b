package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/harness"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

func fullSet(n int) types.Set { return types.FullSet(n) }

func checkAll(t *testing.T, res harness.RiderResult, within types.Set) {
	t.Helper()
	if err := res.CheckTotalOrder(within); err != nil {
		t.Error(err)
	}
	if err := res.CheckIntegrity(within); err != nil {
		t.Error(err)
	}
	if err := res.CheckAgreement(within); err != nil {
		t.Error(err)
	}
}

func TestAsymmetricOnThresholdSystem(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	res := harness.RunRider(harness.RiderConfig{
		Kind:       harness.Asymmetric,
		Trust:      trust,
		NumWaves:   8,
		TxPerBlock: 2,
		Seed:       1,
		CoinSeed:   1,
	})
	for p, nr := range res.Nodes {
		if nr.DecidedWave == 0 {
			t.Errorf("%v decided no wave", p)
		}
		if len(nr.Blocks) == 0 {
			t.Errorf("%v delivered no transactions", p)
		}
		if nr.Round < 4*8 {
			t.Errorf("%v stalled at round %d", p, nr.Round)
		}
	}
	checkAll(t, res, fullSet(4))
	if err := res.CheckValidity(fullSet(4), 2, 1); err != nil {
		t.Error(err)
	}
}

func TestAsymmetricManySeeds(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	for seed := int64(0); seed < 8; seed++ {
		res := harness.RunRider(harness.RiderConfig{
			Kind:       harness.Asymmetric,
			Trust:      trust,
			NumWaves:   6,
			TxPerBlock: 1,
			Seed:       seed,
			CoinSeed:   seed + 100,
			Latency:    sim.UniformLatency{Min: 1, Max: 40},
		})
		checkAll(t, res, fullSet(4))
		committed := 0
		for _, nr := range res.Nodes {
			if nr.DecidedWave > 0 {
				committed++
			}
		}
		if committed == 0 {
			t.Errorf("seed %d: nobody committed", seed)
		}
	}
}

func TestAsymmetricOnCounterexampleSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("30-process run is slow")
	}
	sys := quorum.Counterexample()
	res := harness.RunRider(harness.RiderConfig{
		Kind:       harness.Asymmetric,
		Trust:      sys,
		NumWaves:   4,
		TxPerBlock: 1,
		Seed:       3,
		CoinSeed:   3,
	})
	decided := 0
	for _, nr := range res.Nodes {
		if nr.Round < 16 {
			t.Errorf("a node stalled at round %d", nr.Round)
		}
		if nr.DecidedWave > 0 {
			decided++
		}
	}
	if decided == 0 {
		t.Error("no process committed any wave on the counterexample system")
	}
	checkAll(t, res, fullSet(30))
}

func TestAsymmetricOnFederatedSystem(t *testing.T) {
	sys, err := quorum.NewFederated(quorum.FederatedConfig{
		N: 10, TopTier: 7, TrustedPeers: 2, Tolerance: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := harness.RunRider(harness.RiderConfig{
		Kind:       harness.Asymmetric,
		Trust:      sys,
		NumWaves:   6,
		TxPerBlock: 2,
		Seed:       2,
		CoinSeed:   2,
	})
	for p, nr := range res.Nodes {
		if nr.Round < 24 {
			t.Errorf("%v stalled at round %d", p, nr.Round)
		}
	}
	checkAll(t, res, fullSet(10))
}

func TestAsymmetricWithCrashFaults(t *testing.T) {
	// Threshold(7,2) as an asymmetric assumption; crash 2 processes.
	trust := quorum.NewThreshold(7, 2)
	res := harness.RunRider(harness.RiderConfig{
		Kind:       harness.Asymmetric,
		Trust:      trust,
		NumWaves:   8,
		TxPerBlock: 1,
		Seed:       4,
		CoinSeed:   4,
		Scenario:   &scenario.Scenario{Faults: []scenario.NodeFault{scenario.Mute(5), scenario.Mute(6)}},
	})
	correct := types.NewSetOf(7, 0, 1, 2, 3, 4)
	committed := 0
	for _, p := range correct.Members() {
		nr := res.Nodes[p]
		if nr.Round < 32 {
			t.Errorf("%v stalled at round %d with crashes", p, nr.Round)
		}
		if nr.DecidedWave > 0 {
			committed++
		}
	}
	if committed == 0 {
		t.Error("no correct process committed under crash faults")
	}
	checkAll(t, res, correct)
}

func TestAsymmetricCrashInsideFailProneSet(t *testing.T) {
	sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{N: 8, NumSets: 2, MaxFault: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	n := sys.N()
	// Pick a faulty set tolerated widely enough to leave a full guild of
	// the remaining processes.
	var faultySet types.Set
	found := false
	for i := 0; i < n && !found; i++ {
		for _, fp := range sys.FailProneSets(types.ProcessID(i)) {
			if fp.Count() == 0 {
				continue
			}
			if g := sys.MaximalGuild(fp); g.Count() == n-fp.Count() {
				faultySet = fp
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no suitable fail-prone set")
	}
	guild := sys.MaximalGuild(faultySet)
	sc := &scenario.Scenario{}
	for _, p := range faultySet.Members() {
		sc.Faults = append(sc.Faults, scenario.Mute(p))
	}
	res := harness.RunRider(harness.RiderConfig{
		Kind:       harness.Asymmetric,
		Trust:      sys,
		NumWaves:   6,
		TxPerBlock: 1,
		Seed:       6,
		CoinSeed:   6,
		Scenario:   sc,
	})
	for _, p := range guild.Members() {
		if res.Nodes[p].Round < 24 {
			t.Errorf("guild member %v stalled at round %d", p, res.Nodes[p].Round)
		}
	}
	checkAll(t, res, guild)
}

// vertexEquivocator is a Byzantine node that sends conflicting round-1
// vertices to different halves of the system and then goes silent.
type vertexEquivocator struct{ trust quorum.Assumption }

func (b *vertexEquivocator) Init(env sim.Env) {
	n := env.N()
	genesis := rider.Genesis(n)
	var strong []dag.VertexRef
	for _, g := range genesis {
		strong = append(strong, g.Ref())
	}
	va := &dag.Vertex{Source: env.Self(), Round: 1, Block: []string{"evil-A"}, StrongEdges: strong}
	vb := &dag.Vertex{Source: env.Self(), Round: 1, Block: []string{"evil-B"}, StrongEdges: strong}
	slot := broadcast.Slot{Src: env.Self(), Seq: 1}
	for i := 0; i < n; i++ {
		p := rider.VertexPayload{V: va}
		if i >= n/2 {
			p = rider.VertexPayload{V: vb}
		}
		broadcast.EquivocateSend(env, types.ProcessID(i), slot, p)
	}
}

func (b *vertexEquivocator) Receive(sim.Env, types.ProcessID, sim.Message) {}

func TestAsymmetricVertexEquivocation(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	res := harness.RunRider(harness.RiderConfig{
		Kind:       harness.Asymmetric,
		Trust:      trust,
		NumWaves:   6,
		TxPerBlock: 1,
		Seed:       8,
		CoinSeed:   8,
		Scenario: &scenario.Scenario{Faults: []scenario.NodeFault{{
			P: 3, Wrap: func(sim.Node) sim.Node { return &vertexEquivocator{trust: trust} },
		}}},
	})
	correct := types.NewSetOf(4, 0, 1, 2)
	checkAll(t, res, correct)
	// At most one of the two equivocated blocks may ever be delivered,
	// and never both at one process or different ones at different
	// processes.
	var seen string
	for _, p := range correct.Members() {
		for _, tx := range res.Nodes[p].Blocks {
			if tx == "evil-A" || tx == "evil-B" {
				if seen == "" {
					seen = tx
				} else if seen != tx {
					t.Fatalf("conflicting equivocated blocks delivered: %s and %s", seen, tx)
				}
			}
		}
	}
	// Liveness must be unaffected.
	for _, p := range correct.Members() {
		if res.Nodes[p].Round < 24 {
			t.Errorf("%v stalled at round %d", p, res.Nodes[p].Round)
		}
	}
}

// TestLemma42LeaderChain checks the committed-leader reachability invariant
// directly on the node DAGs.
func TestLemma42LeaderChain(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	c := coin.NewPRF(42, 4)
	nodes := make([]sim.Node, 4)
	cores := make([]*core.Node, 4)
	for i := range nodes {
		nd := core.NewNode(core.Config{
			Trust:    trust,
			Coin:     c,
			Workload: rider.SyntheticWorkload{Self: types.ProcessID(i), TxPerBlock: 1},
			MaxRound: 40,
		})
		nodes[i] = nd
		cores[i] = nd
	}
	r := sim.NewRunner(sim.Config{N: 4, Seed: 42, Latency: sim.UniformLatency{Min: 1, Max: 25}}, nodes)
	r.Run(0)
	for i, nd := range cores {
		if len(nd.Commits()) < 2 {
			continue
		}
		if err := harness.CheckCommittedLeaderChain(nd.DAG(), nd.Commits()); err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// TestLemma44WavesPerCommit: the expected number of waves until a commit is
// at most |P|/c(Q). Averaged over seeds with a comfortable slack (the bound
// is loose — the common core is usually much larger than one quorum).
func TestLemma44WavesPerCommit(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	bound := 4.0 / 3.0
	total, runs := 0.0, 0
	for seed := int64(0); seed < 6; seed++ {
		res := harness.RunRider(harness.RiderConfig{
			Kind:     harness.Asymmetric,
			Trust:    trust,
			NumWaves: 10,
			Seed:     seed,
			CoinSeed: seed * 7,
		})
		for p := range res.Nodes {
			if w, ok := res.WavesPerCommit(p); ok {
				total += w
				runs++
			}
		}
	}
	if runs == 0 {
		t.Fatal("no commits at all")
	}
	mean := total / float64(runs)
	// Allow slack for boundary effects on short runs.
	if mean > bound*1.75 {
		t.Errorf("mean waves/commit %.2f far exceeds Lemma 4.4 bound %.2f", mean, bound)
	}
	t.Logf("mean waves per commit %.3f (bound %.3f)", mean, bound)
}

// TestRevealedCoinProtocol: the share-gated coin preserves all properties
// and still commits.
func TestRevealedCoinProtocol(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	for seed := int64(0); seed < 5; seed++ {
		res := harness.RunRider(harness.RiderConfig{
			Kind:         harness.Asymmetric,
			Trust:        trust,
			NumWaves:     8,
			TxPerBlock:   1,
			Seed:         seed,
			CoinSeed:     seed + 50,
			RevealedCoin: true,
			Latency:      sim.UniformLatency{Min: 1, Max: 35},
		})
		committed := 0
		for p, nr := range res.Nodes {
			if nr.Round < 32 {
				t.Errorf("seed %d: %v stalled at round %d", seed, p, nr.Round)
			}
			if nr.DecidedWave > 0 {
				committed++
			}
		}
		if committed == 0 {
			t.Errorf("seed %d: nobody committed with revealed coin", seed)
		}
		checkAll(t, res, fullSet(4))
	}
}

// TestRevealedCoinAsymmetricSystem: revealed coin on a genuinely
// asymmetric system with a mute fault.
func TestRevealedCoinAsymmetricSystem(t *testing.T) {
	sys, err := quorum.NewFederated(quorum.FederatedConfig{
		N: 10, TopTier: 7, TrustedPeers: 2, Tolerance: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a victim whose failure every other process tolerates (top-tier
	// members are covered by everyone's Tolerance; peers outside the top
	// tier may be single points of failure for whoever trusts them).
	var victim types.ProcessID = -1
	var guild types.Set
	for c := 0; c < 10; c++ {
		f := types.NewSetOf(10, types.ProcessID(c))
		if g := sys.MaximalGuild(f); g.Count() == 9 {
			victim, guild = types.ProcessID(c), g
			break
		}
	}
	if victim < 0 {
		t.Skip("no universally tolerated victim")
	}
	res := harness.RunRider(harness.RiderConfig{
		Kind:         harness.Asymmetric,
		Trust:        sys,
		NumWaves:     6,
		TxPerBlock:   1,
		Seed:         9,
		CoinSeed:     9,
		RevealedCoin: true,
		Scenario:     &scenario.Scenario{Faults: []scenario.NodeFault{scenario.Mute(victim)}},
	})
	committed := 0
	for _, p := range guild.Members() {
		if res.Nodes[p].DecidedWave > 0 {
			committed++
		}
	}
	if committed == 0 {
		t.Error("no guild commits with revealed coin + fault")
	}
	checkAll(t, res, guild)
}

// TestDeterminism: identical seeds give identical outcomes.
func TestDeterminism(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	run := func() harness.RiderResult {
		return harness.RunRider(harness.RiderConfig{
			Kind:       harness.Asymmetric,
			Trust:      trust,
			NumWaves:   5,
			TxPerBlock: 1,
			Seed:       77,
			CoinSeed:   78,
		})
	}
	a, b := run(), run()
	for p, na := range a.Nodes {
		nb := b.Nodes[p]
		if len(na.Deliveries) != len(nb.Deliveries) {
			t.Fatalf("%v: %d vs %d deliveries", p, len(na.Deliveries), len(nb.Deliveries))
		}
		for i := range na.Deliveries {
			if na.Deliveries[i].Ref != nb.Deliveries[i].Ref {
				t.Fatalf("%v: delivery %d differs", p, i)
			}
		}
	}
	if a.Metrics.MessagesSent != b.Metrics.MessagesSent {
		t.Fatal("message counts differ between identical runs")
	}
}

// TestTrustSizeMustMatchCluster: a trust assumption over more or fewer
// processes than the cluster has is a configuration error, reported at
// start-up. A larger one used to leave every node silently at round 0; a
// smaller one panicked deep inside types on the first vertex from a
// process outside it.
func TestTrustSizeMustMatchCluster(t *testing.T) {
	for _, trustN := range []int{10, 4} {
		t.Run(fmt.Sprintf("trust-%d-cluster-7", trustN), func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("over %d processes in a cluster of 7", trustN)) {
					t.Fatalf("panic %q, want the trust/cluster size mismatch", msg)
				}
			}()
			nodes := make([]sim.Node, 7)
			for i := range nodes {
				nodes[i] = core.NewNode(core.Config{Trust: quorum.NewThreshold(trustN, 1), Coin: coin.NewPRF(1, 7), MaxRound: 8})
			}
			sim.NewRunner(sim.Config{N: 7, Seed: 1}, nodes).Run(0)
		})
	}
}

// TestControlVotesGoToAudiences counts the gather control traffic and the
// revealed coin's shares of honest runs. Each is counted only through the
// receiver's quorum and kernel predicates, so it goes only to the
// processes whose quorums contain the sender: an ACK for a round-2 vertex
// goes to its source only if the ACKer lies in one of the source's
// quorums, and a READY, CONFIRM or share goes to the sender's audience.
// A copy to the sender itself crosses no link and is free, so every wave
// costs quorum.VotePairs of each, the links from each j to the processes
// whose quorums contain j: n(n−1) under threshold trust and 169 of 870 on
// the Fig. 1 system.
func TestControlVotesGoToAudiences(t *testing.T) {
	const waves = 3
	for _, tc := range []struct {
		name    string
		trust   quorum.Assumption
		perWave int
	}{
		{"threshold n=4", quorum.NewThreshold(4, 1), 12},
		{"Fig. 1", quorum.Counterexample(), 169},
	} {
		if pairs := quorum.VotePairs(tc.trust); pairs != tc.perWave {
			t.Fatalf("%s: VotePairs %d, want %d", tc.name, pairs, tc.perWave)
		}
		res := harness.RunRider(harness.RiderConfig{
			Kind: harness.Asymmetric, Trust: tc.trust, NumWaves: waves, TxPerBlock: 1,
			Seed: 3, CoinSeed: 3, RevealedCoin: true,
		})
		for p, nr := range res.Nodes {
			if nr.DecidedWave != waves {
				t.Fatalf("%s: %v decided wave %d, want %d", tc.name, p, nr.DecidedWave, waves)
			}
		}
		by := res.Metrics.ByType
		for _, typ := range []string{"core.ackMsg", "core.readyMsg", "core.confirmMsg", "coin.ShareMsg"} {
			if by[typ] != waves*tc.perWave {
				t.Errorf("%s: %d %s over %d waves, want %d per wave", tc.name, by[typ], typ, waves, tc.perWave)
			}
		}
	}
}

// linkTally is a fault plane that passes every message and counts, by
// message type, the sends that cross a link and the self-sends: the
// independent tally TestRunCountsLinksNotSelfSends checks the metrics
// against.
type linkTally struct{ links, self map[string]int }

func (l linkTally) OnSend(from, to types.ProcessID, msg sim.Message, _ sim.VirtualTime, _ *rand.Rand) sim.SendVerdict {
	if from == to {
		l.self[fmt.Sprintf("%T", msg)]++
	} else {
		l.links[fmt.Sprintf("%T", msg)]++
	}
	return sim.SendVerdict{}
}

// TestRunCountsLinksNotSelfSends pins the simulator's send accounting on
// an honest threshold n=4 run, as the TCP transport counts: ByType holds
// exactly the sends that cross a link, MessagesSent is their sum, and a
// self-send counts nowhere. Every process hears its own broadcast, so a
// reliable-broadcast slot shows one self-copy of its SEND and one of each
// process's READY, always in full, and each of them counts n−1 = 3 times,
// in full or by reference. The SEND is its source's ECHO, so only the
// n−1 = 3 other processes echo: 3 self-copies and 3 × 3 = 9 link sends
// of ECHO per slot.
func TestRunCountsLinksNotSelfSends(t *testing.T) {
	const n = 4
	tally := linkTally{links: map[string]int{}, self: map[string]int{}}
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = core.NewNode(core.Config{Trust: quorum.NewThreshold(n, 1), Coin: coin.NewPRF(1, n), MaxRound: 12})
	}
	r := sim.NewRunner(sim.Config{N: n, Seed: 1, Latency: sim.UniformLatency{Min: 1, Max: 20}, Fault: tally}, nodes)
	r.Run(0)
	m := r.Metrics()
	if m.EncodeErrors != 0 || m.MessagesDropped != 0 {
		t.Fatalf("%d encode errors and %d drops in an honest run", m.EncodeErrors, m.MessagesDropped)
	}
	sum := 0
	for typ, c := range m.ByType {
		sum += c
		if c != tally.links[typ] {
			t.Errorf("ByType[%s] = %d, but %d sends of it crossed a link", typ, c, tally.links[typ])
		}
	}
	if len(m.ByType) != len(tally.links) || m.MessagesSent != sum {
		t.Errorf("ByType %v sums to %d of %d sent; links carried %v", m.ByType, sum, m.MessagesSent, tally.links)
	}
	self := 0
	for _, c := range tally.self {
		self += c
	}
	if m.MessagesDelivered != m.MessagesSent+self {
		t.Errorf("delivered %d, want the %d sent plus the %d self-sends", m.MessagesDelivered, m.MessagesSent, self)
	}
	slots := tally.self["broadcast.sendMsg"]
	if slots < n*12 {
		t.Fatalf("%d broadcast slots, want at least one per process and round (%d)", slots, n*12)
	}
	for _, k := range []struct {
		typ, ref string
		perSlot  int
	}{
		{"broadcast.sendMsg", "", 1},
		{"broadcast.echoMsg", "broadcast.echoRefMsg", n - 1},
		{"broadcast.readyMsg", "broadcast.readyRefMsg", n},
	} {
		counted := m.ByType[k.typ] + m.ByType[k.ref]
		if tally.self[k.typ] != k.perSlot*slots || tally.self[k.ref] != 0 || counted != (n-1)*k.perSlot*slots {
			t.Errorf("%d slots: %s sent to self %d times (%d by reference) and counted %d, want %d, 0 and %d",
				slots, k.typ, tally.self[k.typ], tally.self[k.ref], counted, k.perSlot*slots, (n-1)*k.perSlot*slots)
		}
	}
}

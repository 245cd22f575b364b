package gather

import (
	"math/rand"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

// adversarialLatency builds the Appendix A schedule: every process hears
// its canonical quorum fast and everything else slow.
func adversarialLatency(sys *quorum.System) sim.LatencyModel {
	fav := make([]types.Set, sys.N())
	for i := range fav {
		fav[i] = sys.Quorums(types.ProcessID(i))[0]
	}
	return sim.FavoredLinksLatency{Favored: fav, Fast: 1, Slow: 100000}
}

// TestAlgorithm2CounterexampleMessageLevel runs the real message-passing
// Algorithm 2 on the Figure 1 system under the adversarial schedule and
// verifies (a) the delivered U sets match the abstract Listing 1 execution
// set-for-set, and (b) there is no common core (Lemma 3.2).
func TestAlgorithm2CounterexampleMessageLevel(t *testing.T) {
	sys := quorum.Counterexample()
	res := RunCluster(RunConfig{
		Kind:    KindThreeRound,
		Trust:   sys,
		Mode:    UsePlain,
		Latency: adversarialLatency(sys),
		Seed:    1,
	})
	n := sys.N()
	if len(res.Outputs) != n {
		t.Fatalf("%d of %d processes delivered", len(res.Outputs), n)
	}
	// Match the abstract execution.
	abstract := RoundSets(n, CanonicalChoice(sys), 3)
	for p, out := range res.Outputs {
		if got := out.Senders(n); !got.Equal(abstract[p]) {
			t.Errorf("%v delivered %v, abstract predicts %v", p, got, abstract[p])
		}
	}
	// No common core among all 30 (everyone is in the maximal guild).
	all := types.FullSet(n)
	uSets := res.Outputs
	core := AnalyzeCommonCore(n, res.SSnapshots, uSets, all)
	if !core.IsEmpty() {
		t.Fatalf("message-level Algorithm 2 found a common core %v; Lemma 3.2 says none exists", core)
	}
}

// TestAlgorithm1ThresholdCommonCore: the same code under threshold trust is
// Algorithm 1 and must produce a common core of ≥ n−f pairs under any
// scheduling.
func TestAlgorithm1ThresholdCommonCore(t *testing.T) {
	n, f := 7, 2
	trust := quorum.NewThreshold(n, f)
	for seed := int64(0); seed < 10; seed++ {
		res := RunCluster(RunConfig{
			Kind:    KindThreeRound,
			Trust:   trust,
			Mode:    UseReliable,
			Latency: sim.UniformLatency{Min: 1, Max: 50},
			Seed:    seed,
		})
		if len(res.Outputs) != n {
			t.Fatalf("seed %d: %d delivered", seed, len(res.Outputs))
		}
		core := AnalyzeCommonCore(n, res.SSnapshots, res.Outputs, types.FullSet(n))
		if core.IsEmpty() {
			t.Fatalf("seed %d: threshold gather produced no common core", seed)
		}
		// The common core S set must contain at least n−f pairs.
		for _, p := range core.Members() {
			if res.SSnapshots[p].Len() < n-f {
				t.Fatalf("seed %d: common core of size %d < n−f", seed, res.SSnapshots[p].Len())
			}
			break
		}
	}
}

// TestAlgorithm3CounterexampleAdversarial is the headline §3.3 result: the
// constant-round asymmetric gather reaches a common core on the very
// system and schedule that defeats Algorithm 2.
func TestAlgorithm3CounterexampleAdversarial(t *testing.T) {
	sys := quorum.Counterexample()
	res := RunCluster(RunConfig{
		Kind:    KindConstantRound,
		Trust:   sys,
		Mode:    UsePlain,
		Latency: adversarialLatency(sys),
		Seed:    1,
	})
	n := sys.N()
	if len(res.Outputs) != n {
		t.Fatalf("%d of %d processes delivered", len(res.Outputs), n)
	}
	core := AnalyzeCommonCore(n, res.SSnapshots, res.Outputs, types.FullSet(n))
	if core.IsEmpty() {
		t.Fatal("Algorithm 3 failed to produce a common core on the counterexample")
	}
	t.Logf("common core candidates: %v", core)
}

// TestAlgorithm3RandomSchedules: common core on the counterexample system
// under many random schedules too.
func TestAlgorithm3RandomSchedules(t *testing.T) {
	sys := quorum.Counterexample()
	n := sys.N()
	for seed := int64(0); seed < 5; seed++ {
		res := RunCluster(RunConfig{
			Kind:    KindConstantRound,
			Trust:   sys,
			Mode:    UsePlain,
			Latency: sim.UniformLatency{Min: 1, Max: 100},
			Seed:    seed,
		})
		if len(res.Outputs) != n {
			t.Fatalf("seed %d: %d delivered", seed, len(res.Outputs))
		}
		core := AnalyzeCommonCore(n, res.SSnapshots, res.Outputs, types.FullSet(n))
		if core.IsEmpty() {
			t.Fatalf("seed %d: no common core", seed)
		}
	}
}

// TestAlgorithm3Threshold: Algorithm 3 also works under threshold trust.
func TestAlgorithm3Threshold(t *testing.T) {
	n, f := 4, 1
	trust := quorum.NewThreshold(n, f)
	res := RunCluster(RunConfig{
		Kind:    KindConstantRound,
		Trust:   trust,
		Mode:    UseReliable,
		Latency: sim.UniformLatency{Min: 1, Max: 20},
		Seed:    3,
	})
	if len(res.Outputs) != n {
		t.Fatalf("%d delivered", len(res.Outputs))
	}
	core := AnalyzeCommonCore(n, res.SSnapshots, res.Outputs, types.FullSet(n))
	if core.IsEmpty() {
		t.Fatal("no common core")
	}
}

// TestAlgorithm3WithCrashFaults: crash a tolerated fail-prone set; every
// maximal-guild member must still deliver, with a common core among the
// guild (Definition 3.1 is stated for executions with a guild).
func TestAlgorithm3WithCrashFaults(t *testing.T) {
	sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{N: 10, NumSets: 3, MaxFault: 2, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	n := sys.N()
	// Choose a faulty set that leaves a sizable guild.
	var faulty types.Set
	found := false
	for i := 0; i < n && !found; i++ {
		for _, fp := range sys.FailProneSets(types.ProcessID(i)) {
			if fp.Count() == 0 {
				continue
			}
			if g := sys.MaximalGuild(fp); g.Count() >= n/2 {
				faulty = fp
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no suitable faulty set in this random system")
	}
	guild := sys.MaximalGuild(faulty)

	sc := &scenario.Scenario{}
	for _, p := range faulty.Members() {
		sc.Faults = append(sc.Faults, scenario.Mute(p))
	}
	res := RunCluster(RunConfig{
		Kind:     KindConstantRound,
		Trust:    sys,
		Mode:     UseReliable,
		Latency:  sim.UniformLatency{Min: 1, Max: 30},
		Seed:     9,
		Scenario: sc,
	})
	for _, p := range guild.Members() {
		if _, ok := res.Outputs[p]; !ok {
			t.Fatalf("guild member %v did not deliver (guild %v, faulty %v)", p, guild, faulty)
		}
	}
	core := AnalyzeCommonCore(n, res.SSnapshots, res.Outputs, guild)
	if core.IsEmpty() {
		t.Fatalf("no common core among guild %v with faulty %v", guild, faulty)
	}
}

// TestAlgorithm3ValidityAndAgreement: delivered values for wise processes
// match their inputs, and no two processes disagree on any value.
func TestAlgorithm3ValidityAndAgreement(t *testing.T) {
	sys := quorum.Counterexample()
	res := RunCluster(RunConfig{
		Kind:    KindConstantRound,
		Trust:   sys,
		Mode:    UseReliable,
		Latency: sim.UniformLatency{Min: 1, Max: 40},
		Seed:    11,
	})
	for p, out := range res.Outputs {
		for src, val := range out.Map() {
			if want := InputValue(src); val != want {
				t.Fatalf("%v delivered (%v,%q), want value %q (validity)", p, src, val, want)
			}
		}
	}
	// Agreement across outputs.
	agreed := map[types.ProcessID]string{}
	for _, out := range res.Outputs {
		for src, val := range out.Map() {
			if prev, ok := agreed[src]; ok && prev != val {
				t.Fatalf("agreement violated for %v: %q vs %q", src, prev, val)
			}
			agreed[src] = val
		}
	}
}

// TestAlgorithm3PropertyRandomSystems: property-style sweep — random valid
// asymmetric systems, random schedules, all-correct: common core always
// exists among all processes.
func TestAlgorithm3PropertyRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trials := 15
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		n := 5 + rng.Intn(8)
		sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{
			N:        n,
			NumSets:  1 + rng.Intn(3),
			MaxFault: 1 + rng.Intn(max(1, n/4)),
			Seed:     rng.Int63(),
		})
		if err != nil {
			continue
		}
		res := RunCluster(RunConfig{
			Kind:    KindConstantRound,
			Trust:   sys,
			Mode:    UsePlain,
			Latency: sim.UniformLatency{Min: 1, Max: 60},
			Seed:    rng.Int63(),
		})
		if len(res.Outputs) != n {
			t.Fatalf("trial %d: %d of %d delivered", trial, len(res.Outputs), n)
		}
		core := AnalyzeCommonCore(n, res.SSnapshots, res.Outputs, types.FullSet(n))
		if core.IsEmpty() {
			t.Fatalf("trial %d (n=%d): no common core", trial, n)
		}
	}
}

// TestMessageOverheadComparison documents that Algorithm 3 pays extra
// control messages over Algorithm 2 for its soundness.
func TestMessageOverheadComparison(t *testing.T) {
	sys := quorum.Counterexample()
	lat := sim.UniformLatency{Min: 1, Max: 10}
	three := RunCluster(RunConfig{Kind: KindThreeRound, Trust: sys, Mode: UsePlain, Latency: lat, Seed: 2})
	constant := RunCluster(RunConfig{Kind: KindConstantRound, Trust: sys, Mode: UsePlain, Latency: lat, Seed: 2})
	if constant.Metrics.MessagesSent <= three.Metrics.MessagesSent {
		t.Errorf("expected constant-round (%d msgs) to exceed three-round (%d msgs)",
			constant.Metrics.MessagesSent, three.Metrics.MessagesSent)
	}
	t.Logf("three-round: %d msgs; constant-round: %d msgs",
		three.Metrics.MessagesSent, constant.Metrics.MessagesSent)
}

func TestPairsOps(t *testing.T) {
	p := NewPairs(5)
	if !p.Set(1, "a") || !p.Set(2, "b") {
		t.Fatal("Set on fresh keys failed")
	}
	if p.Set(1, "conflict") {
		t.Fatal("conflicting Set should return false")
	}
	q := PairsOf(5, map[types.ProcessID]string{1: "a"})
	if !p.ContainsAll(q) {
		t.Error("ContainsAll subset failed")
	}
	if q.ContainsAll(p) {
		t.Error("ContainsAll superset should fail")
	}
	if q.ContainsAll(PairsOf(5, map[types.ProcessID]string{1: "x"})) {
		t.Error("ContainsAll must compare values")
	}
	c := p.Clone()
	c.Set(3, "c")
	if p.Len() != 2 {
		t.Error("Clone not independent")
	}
	m := PairsOf(5, map[types.ProcessID]string{2: "b", 3: "c"})
	if !p.Merge(m) {
		t.Error("compatible Merge returned false")
	}
	if p.Len() != 3 {
		t.Errorf("Len = %d", p.Len())
	}
	if p.Merge(PairsOf(5, map[types.ProcessID]string{3: "zzz"})) {
		t.Error("conflicting Merge returned true")
	}
	if got := p.Senders(5); !got.Equal(types.NewSetOf(5, 1, 2, 3)) {
		t.Errorf("Senders = %v", got)
	}
	if (Pairs{}).String() != "{}" {
		t.Errorf("empty String = %q", (Pairs{}).String())
	}
	if got := PairsOf(5, map[types.ProcessID]string{0: "v1"}).String(); got != `{1:"v1"}` {
		t.Errorf("String = %q", got)
	}
}

func TestKindString(t *testing.T) {
	if KindThreeRound.String() != "three-round" || KindConstantRound.String() != "constant-round" ||
		KindTwoRound.String() != "two-round" || KindBinding.String() != "binding" {
		t.Error("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind should still render")
	}
}

// poisonNode is a Byzantine process that broadcasts a legitimate input but
// then distributes an S set containing a FABRICATED pair for another
// process. Correct Algorithm 3 nodes must never accept it: the
// "S_j ⊆ S_i" precondition passes only for pairs confirmed by the
// reliable broadcast.
type poisonNode struct {
	trust  quorum.Assumption
	victim types.ProcessID
	rb     *broadcast.Reliable
}

func (p *poisonNode) Init(env sim.Env) {
	p.rb = broadcast.NewReliable(env.Self(), p.trust, func(sim.Env, broadcast.Slot, broadcast.Payload) {})
	p.rb.Broadcast(env, 0, broadcast.Bytes("byzantine-input"))
	sim.Multicast(env, sim.Cast{Msg: distMsg{Level: levelS, Set: PairsOf(env.N(), map[types.ProcessID]string{p.victim: "FABRICATED"})}})
}

func (p *poisonNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	p.rb.Handle(env, from, msg) // keep echoing so others' broadcasts complete
}

// TestAlgorithm3RejectsFabricatedPairs: the fabricated pair never enters
// any correct output, and the victim's true value survives.
func TestAlgorithm3RejectsFabricatedPairs(t *testing.T) {
	n, f := 4, 1
	trust := quorum.NewThreshold(n, f)
	byz := types.ProcessID(3)
	victim := types.ProcessID(0)
	res := RunCluster(RunConfig{
		Kind:    KindConstantRound,
		Trust:   trust,
		Mode:    UseReliable,
		Latency: sim.UniformLatency{Min: 1, Max: 25},
		Seed:    13,
		Scenario: &scenario.Scenario{Faults: []scenario.NodeFault{{
			P: byz, Wrap: func(sim.Node) sim.Node { return &poisonNode{trust: trust, victim: victim} },
		}}},
	})
	correct := types.NewSetOf(n, 0, 1, 2)
	for _, p := range correct.Members() {
		out, ok := res.Outputs[p]
		if !ok {
			t.Fatalf("correct %v did not deliver", p)
		}
		if v, present := out.Get(victim); present && v != InputValue(victim) {
			t.Fatalf("%v delivered fabricated value %q for %v", p, v, victim)
		}
	}
	core := AnalyzeCommonCore(n, res.SSnapshots, res.Outputs, correct)
	if core.IsEmpty() {
		t.Fatal("no common core among correct processes despite poisoning")
	}
}

// levelNode is a Byzantine process that broadcasts its input and then
// distributes a fabricated set at each of levels.
type levelNode struct {
	trust  quorum.Assumption
	levels []int
	rb     *broadcast.Reliable
}

func (b *levelNode) Init(env sim.Env) {
	b.rb = broadcast.NewReliable(env.Self(), b.trust, func(sim.Env, broadcast.Slot, broadcast.Payload) {})
	b.rb.Broadcast(env, 0, broadcast.Bytes(InputValue(env.Self())))
	fake := PairsOf(env.N(), map[types.ProcessID]string{0: "FABRICATED"})
	for _, level := range b.levels {
		sim.Multicast(env, sim.Cast{Msg: distMsg{Level: level, Set: fake}})
	}
}

func (b *levelNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	b.rb.Handle(env, from, msg)
}

// TestMergeNodeDropsLevelsWithoutSet: a DISTRIBUTE at a level past a
// node's last set (level 1 or 2 at a two-round node, level 2 at a
// three-round or a constant-round one) is dropped: no node panics, every
// correct node delivers, and no fabricated value reaches an output. So is
// one at a level the codec does not carry (−1 or 3), which has no wire
// form: each send of one to another process is an encode error, as TCP
// drops it, though the simulator still delivers it.
func TestMergeNodeDropsLevelsWithoutSet(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	byz := types.ProcessID(3)
	for _, tc := range []struct {
		kind   Kind
		levels []int
	}{
		{KindTwoRound, []int{levelT, levelU}},
		{KindThreeRound, []int{levelU}},
		{KindConstantRound, []int{levelU}},
		{KindThreeRound, []int{-1, levelU + 1}},
	} {
		res := RunCluster(RunConfig{
			Kind: tc.kind, Trust: trust, Mode: UseReliable, Latency: sim.UniformLatency{Min: 1, Max: 25}, Seed: 13,
			Scenario: &scenario.Scenario{Faults: []scenario.NodeFault{{
				P: byz, Wrap: func(sim.Node) sim.Node { return &levelNode{trust: trust, levels: tc.levels} },
			}}},
		})
		for p := types.ProcessID(0); p < byz; p++ {
			out, ok := res.Outputs[p]
			if !ok {
				t.Fatalf("%v: correct %v did not deliver", tc.kind, p)
			}
			for src, v := range out.Map() {
				if v != InputValue(src) {
					t.Fatalf("%v: %v delivered %q for %v", tc.kind, p, v, src)
				}
			}
		}
		unencodable := 0
		for _, level := range tc.levels {
			if level < levelS || level > levelU {
				unencodable += trust.N() - 1 // one per other process
			}
		}
		if res.Metrics.EncodeErrors != unencodable {
			t.Fatalf("%v, levels %v: %d encode errors, want %d", tc.kind, tc.levels, res.Metrics.EncodeErrors, unencodable)
		}
	}
}

// ackProbe counts the ACKs its node receives.
type ackProbe struct {
	sim.Node
	acks *int
}

func (a ackProbe) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if _, ok := msg.(ackMsg); ok {
		*a.acks++
	}
	a.Node.Receive(env, from, msg)
}

func (a ackProbe) Unwrap() sim.Node { return a.Node }

// TestAlgorithm3NoAckAfterGateOpens (line 48): a DISTRIBUTE_S that arrives
// after its receiver distributed T is not acknowledged. Every link out of
// process 3 is slow, so every gate opens long before 3's S set arrives,
// and 3 receives no ACK at all.
func TestAlgorithm3NoAckAfterGateOpens(t *testing.T) {
	slow := types.ProcessID(3)
	acks := 0
	res := RunCluster(RunConfig{
		Kind: KindConstantRound, Trust: quorum.NewThreshold(4, 1), Mode: UsePlain, Seed: 1,
		Latency: sim.LatencyFunc(func(from, _ types.ProcessID, _ sim.Message, _ sim.VirtualTime, _ *rand.Rand) sim.VirtualTime {
			if from == slow {
				return 1000
			}
			return 1
		}),
		Scenario: &scenario.Scenario{Faults: []scenario.NodeFault{{
			P: slow, Wrap: func(nd sim.Node) sim.Node { return ackProbe{Node: nd, acks: &acks} },
		}}},
	})
	if len(res.Outputs) != 4 {
		t.Fatalf("%d of 4 delivered", len(res.Outputs))
	}
	if acks != 0 {
		t.Fatalf("process 3 received %d ACKs for an S set that arrived after every gate opened", acks)
	}
}

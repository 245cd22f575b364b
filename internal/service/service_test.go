package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

func baseConfig(seed int64) Config {
	return Config{
		Trust:          quorum.NewThreshold(4, 1),
		Seed:           seed,
		CoinSeed:       seed + 1,
		StopAfterWaves: 12,
	}
}

func TestServiceRunsAndStops(t *testing.T) {
	res := Run(baseConfig(1))
	if !res.Stopped {
		t.Fatalf("service did not reach the stop condition (HitLimit=%v)", res.HitLimit)
	}
	for p, rep := range res.Replicas {
		if rep.DecidedWave < 12 {
			t.Errorf("replica %v decided only wave %d", p, rep.DecidedWave)
		}
		if rep.Applied == 0 {
			t.Errorf("replica %v applied no transactions", p)
		}
		if rep.Submitted == 0 {
			t.Errorf("replica %v submitted no commands", p)
		}
		if len(rep.Snapshots) == 0 {
			t.Errorf("replica %v took no snapshots", p)
		}
		if rep.Compacted == 0 {
			t.Errorf("replica %v never compacted its log", p)
		}
		if rep.Latency.Count == 0 {
			t.Errorf("replica %v recorded no commit latencies", p)
		}
	}
}

// TestServiceSnapshotsByteIdentical pins the service's correctness
// contract: any two replicas with a snapshot at the same decided wave have
// byte-identical state and applied counts.
func TestServiceSnapshotsByteIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		res := Run(baseConfig(seed))
		if !res.Stopped {
			t.Fatalf("seed %d: run truncated", seed)
		}
		compareSnapshots(t, res, fmt.Sprintf("seed %d", seed))
	}
}

func compareSnapshots(t *testing.T, res Result, label string) int {
	t.Helper()
	common, err := CompareSnapshots(res)
	if err != nil {
		t.Errorf("%s: %v", label, err)
	}
	if common == 0 {
		t.Errorf("%s: no snapshot wave was shared by two replicas", label)
	}
	return common
}

// tickWatch wraps a replica and checks every client tick against the
// admission loop written with fmt.Sprintf: the same commands, the same
// admitted and rejected counts, and one admission time per admitted
// command, the tick's. It also keeps the reference latency accounting (see
// refMachine): admit maps each command it predicted to its admission time.
type tickWatch struct {
	*Replica
	t                  *testing.T
	admitted, rejected int
	admit              map[string]sim.VirtualTime
	latency            histogram
	// applied counts the own commands refMachine found in admit; late the
	// runs of consecutive ones applied after a later own command, that is
	// own vertices delivered out of round order (two such vertices applied
	// back to back with consecutive commands count once).
	applied, late  int
	last, maxFound int
}

func (w *tickWatch) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	tick, ok := msg.(tickMsg)
	if !ok || from != env.Self() || tick.Seq != w.tickSeq {
		w.Replica.Receive(env, from, msg)
		return
	}
	s, cfg := w.Replica, w.cfg
	next, queued, known := s.nextCmd, s.queue.Len(), len(s.admitted)
	var want []string
	rejected := 0
	for i := 0; i < clientRate; i++ {
		if queued >= cfg.MaxQueue {
			rejected++
			continue
		}
		want = append(want, fmt.Sprintf("set k%d p%d.%d", next%keySpace, int(s.self), next))
		next++
		queued++
	}
	sub, rej := s.submitted, s.rejected
	s.Receive(env, from, msg)
	if s.submitted-sub != len(want) || s.rejected-rej != rejected || s.nextCmd != next ||
		s.queue.Len() != queued || len(s.admitted) != known+len(want) {
		w.t.Fatalf("%v tick %d: admitted %d (%d entries) and rejected %d, queue %d, want %d, %d and queue %d",
			s.self, tick.Seq, s.submitted-sub, len(s.admitted)-known, s.rejected-rej, s.queue.Len(), len(want), rejected, queued)
	}
	for i, at := range s.admitted[known:] {
		if at != env.Now() {
			w.t.Fatalf("%v tick %d recorded %q as admitted at %d, want %d", s.self, tick.Seq, want[i], at, env.Now())
		}
	}
	for _, cmd := range want {
		w.admit[cmd] = env.Now()
	}
	w.admitted += len(want)
	w.rejected += rejected
}

// refMachine applies to the replica's state machine and keeps, beside it,
// the latency accounting the replica had before it tracked admissions by
// index: a command found in the watch's admission map, keyed by its text,
// is observed at the replica's current time and leaves the map.
type refMachine struct {
	StateMachine
	w *tickWatch
}

func (m refMachine) Apply(tx string) {
	m.StateMachine.Apply(tx)
	w := m.w
	at, ok := w.admit[tx]
	if !ok {
		return
	}
	delete(w.admit, tx)
	w.latency.observe(int64(w.now - at))
	var key, src, i int
	if _, err := fmt.Sscanf(tx, "set k%d p%d.%d", &key, &src, &i); err != nil {
		w.t.Fatalf("%v applied own command %q: %v", w.self, tx, err)
	}
	if w.applied > 0 && i < w.maxFound && i != w.last+1 {
		w.late++
	}
	w.applied++
	w.last, w.maxFound = i, max(w.maxFound, i)
}

// watchTicks sets cfg up to run every replica under a tickWatch, itself
// inside cfg's own Wrap, with its state machine inside a refMachine, and
// returns the watches, indexed by process, as Run will fill them in.
func watchTicks(t *testing.T, cfg *Config) []*tickWatch {
	watches := make([]*tickWatch, cfg.Trust.N())
	wrap, newMachine := cfg.Wrap, cfg.NewMachine
	if newMachine == nil {
		newMachine = func(types.ProcessID) StateMachine { return NewKV() }
	}
	cfg.Wrap = func(p types.ProcessID, inner sim.Node) sim.Node {
		w := &tickWatch{Replica: inner.(*Replica), t: t, admit: map[string]sim.VirtualTime{}}
		watches[p] = w
		if wrap != nil {
			return wrap(p, w)
		}
		return w
	}
	cfg.NewMachine = func(p types.ProcessID) StateMachine {
		return refMachine{StateMachine: newMachine(p), w: watches[p]}
	}
	return watches
}

// TestTickCommandsMatchFormat pins the client load: every tick submits
// "set k<i mod keySpace> p<self>.<i>" for consecutive i, admits and rejects
// as the admission loop always has, and a run on the Fig. 1 system ends in
// its recorded final states, re-recorded when a SEND became its source's
// ECHO and the run's schedule moved. A small MaxQueue makes ticks reject.
func TestTickCommandsMatchFormat(t *testing.T) {
	cfg := baseConfig(3)
	cfg.MaxQueue, cfg.BatchSize, cfg.StopAfterWaves = 6, 2, 6
	watches := watchTicks(t, &cfg)
	res := Run(cfg)
	if !res.Stopped {
		t.Fatal("run truncated")
	}
	rejected := 0
	for p, w := range watches {
		rep := res.Replicas[types.ProcessID(p)]
		if rep.Submitted != w.admitted || rep.Rejected != w.rejected || w.admitted == 0 {
			t.Fatalf("%v: report %d submitted, %d rejected; ticks admitted %d, rejected %d",
				types.ProcessID(p), rep.Submitted, rep.Rejected, w.admitted, w.rejected)
		}
		rejected += w.rejected
	}
	if rejected == 0 {
		t.Fatal("no tick rejected a command; the admission bound went untested")
	}

	fig1 := Config{Trust: quorum.Counterexample(), Seed: 1, CoinSeed: 2, StopAfterWaves: 4}
	res = Run(fig1)
	if !res.Stopped {
		t.Fatal("Fig. 1 run truncated")
	}
	h := sha256.New()
	for p := 0; p < fig1.Trust.N(); p++ {
		h.Write(res.Replicas[types.ProcessID(p)].FinalState)
	}
	const want = "8184a3501cd51e57d5ca9ff0d80f0f138f19b9b4e7e4d9c95f02f090930cc28d"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Fig. 1 final states hash to %s, want %s", got, want)
	}
}

// TestTicksCrossNoLink pins the service's send accounting to what a TCP
// deployment counts: the client tick is a self-send, which is delivered
// (held while rolling churn has its replica down) but crosses no link, so
// it does not appear in ByType, ByType sums to MessagesSent, and the run
// has no encode error although the tick has no codec.
func TestTicksCrossNoLink(t *testing.T) {
	def, ok := scenario.Find("rolling-churn")
	if !ok {
		t.Fatal("rolling-churn scenario missing from the registry")
	}
	sc := def.Build(4, 1)
	cfg := baseConfig(1)
	cfg.Fault, cfg.Wrap = sc.FaultPlane(), sc.WrapNode
	res := Run(cfg)
	if !res.Stopped {
		t.Fatal("run truncated")
	}
	m := res.Metrics
	sum := 0
	for typ, c := range m.ByType {
		sum += c
		if strings.Contains(strings.ToLower(typ), "tick") {
			t.Errorf("ByType counts self-addressed %s %d times", typ, c)
		}
	}
	if m.MessagesSent != sum || m.EncodeErrors != 0 {
		t.Errorf("ByType sums to %d of %d sent, %d encode errors; want equal and 0", sum, m.MessagesSent, m.EncodeErrors)
	}
	submitted := 0
	for _, rep := range res.Replicas {
		submitted += rep.Submitted
	}
	if submitted == 0 || m.MessagesDelivered <= m.MessagesSent {
		t.Errorf("%d commands submitted, %d delivered of %d sent; want ticks delivered beyond the sends", submitted, m.MessagesDelivered, m.MessagesSent)
	}
}

// TestLatencyMatchesReference pins the replica's own-command latency, kept
// by admission index and observed only for the txs of own vertices, to the
// reference accounting of refMachine, keyed by command text and observed
// for any applied tx: Report.Latency must equal it at every replica, on the
// Fig. 1 system, at n=7 under partition-heal and at n=4 over five seeds.
// Own vertices do deliver out of round order in some of these runs; the
// test logs how many.
func TestLatencyMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full service runs")
	}
	type run struct {
		name string
		cfg  Config
	}
	runs := []run{{"Fig. 1 seed 1", Config{Trust: quorum.Counterexample(), Seed: 1, CoinSeed: 1, StopAfterWaves: 10}}}
	def, ok := scenario.Find("partition-heal")
	if !ok {
		t.Fatal("partition-heal scenario missing from the registry")
	}
	sc := def.Build(7, 1)
	runs = append(runs, run{"n=7 partition-heal seed 1", Config{
		Trust: quorum.NewThreshold(7, 2), Seed: 1, CoinSeed: 1, StopAfterWaves: 8, SnapshotEvery: 1,
		Fault: sc.FaultPlane(), Wrap: sc.WrapNode,
	}})
	for seed := int64(1); seed <= 5; seed++ {
		runs = append(runs, run{fmt.Sprintf("n=4 seed %d", seed), baseConfig(seed)})
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			watches := watchTicks(t, &r.cfg)
			res := Run(r.cfg)
			if !res.Stopped {
				t.Fatal("run truncated")
			}
			applied, late := 0, 0
			for p, rep := range res.Replicas {
				w := watches[p]
				if want := w.latency.summary(); rep.Latency != want || want.Count == 0 {
					t.Fatalf("%v: Report.Latency %+v, reference %+v", p, rep.Latency, want)
				}
				applied += w.applied
				late += w.late
			}
			t.Logf("%d own commands applied; %d own vertices delivered out of round order", applied, late)
		})
	}
}

func TestKVMachineDeterministicSnapshot(t *testing.T) {
	a, b := NewKV(), NewKV()
	cmds := []string{"set x 1", "set y 2", "set x 3", "noise", "set z 9"}
	for _, c := range cmds {
		a.Apply(c)
		b.Apply(c)
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("same command sequence produced different snapshots")
	}
	if v, _ := a.Get("x"); v != "3" {
		t.Fatalf("x = %q, want 3", v)
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
}

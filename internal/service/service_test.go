package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/quorum"
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

// TestServiceDeterministicAcrossWorkers pins the parallel-delivery
// contract for the service layer: identical reports for any worker count.
// (Serial mode is excluded: it stops mid-timestamp when the stop predicate
// turns true, while parallel mode completes whole batches.)
func TestServiceDeterministicAcrossWorkers(t *testing.T) {
	cfg1 := baseConfig(7)
	cfg1.DeliveryWorkers = 1
	base := Run(cfg1)
	for _, workers := range []int{2, 3, 4} {
		cfg := baseConfig(7)
		cfg.DeliveryWorkers = workers
		res := Run(cfg)
		for p, rep := range res.Replicas {
			want := base.Replicas[p]
			if rep.DecidedWave != want.DecidedWave || rep.Applied != want.Applied ||
				rep.Submitted != want.Submitted || len(rep.Snapshots) != len(want.Snapshots) {
				t.Fatalf("workers=%d: replica %v diverged: wave %d/%d applied %d/%d",
					workers, p, rep.DecidedWave, want.DecidedWave, rep.Applied, want.Applied)
			}
			if !bytes.Equal(rep.FinalState, want.FinalState) {
				t.Fatalf("workers=%d: replica %v final state differs from serial run", workers, p)
			}
			for i := range rep.Snapshots {
				if !bytes.Equal(rep.Snapshots[i].State, want.Snapshots[i].State) {
					t.Fatalf("workers=%d: replica %v snapshot %d differs", workers, p, i)
				}
			}
		}
		if res.EndTime != base.EndTime {
			t.Fatalf("workers=%d: end time %d != %d", workers, res.EndTime, base.EndTime)
		}
	}
}

// tickWatch wraps a replica and checks every client tick against the
// admission loop written with fmt.Sprintf: the same commands, the same
// admitted and rejected counts.
type tickWatch struct {
	*Replica
	t                  *testing.T
	admitted, rejected int
}

func (w *tickWatch) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	tick, ok := msg.(tickMsg)
	if !ok || from != env.Self() || tick.Seq != w.tickSeq {
		w.Replica.Receive(env, from, msg)
		return
	}
	s, cfg := w.Replica, w.cfg
	next, queued, known := s.nextCmd, s.queue.Len(), len(s.submitTime)
	var want []string
	rejected := 0
	for i := 0; i < cfg.ClientRate; i++ {
		if queued >= cfg.MaxQueue {
			rejected++
			continue
		}
		want = append(want, fmt.Sprintf("set k%d p%d.%d", next%cfg.KeySpace, int(s.self), next))
		next++
		queued++
	}
	sub, rej := s.submitted, s.rejected
	s.Receive(env, from, msg)
	if s.submitted-sub != len(want) || s.rejected-rej != rejected || s.nextCmd != next ||
		s.queue.Len() != queued || len(s.submitTime) != known+len(want) {
		w.t.Fatalf("%v tick %d: admitted %d and rejected %d, queue %d, want %d, %d and queue %d",
			s.self, tick.Seq, s.submitted-sub, s.rejected-rej, s.queue.Len(), len(want), rejected, queued)
	}
	for _, cmd := range want {
		if _, ok := s.submitTime[cmd]; !ok {
			w.t.Fatalf("%v tick %d did not submit %q", s.self, tick.Seq, cmd)
		}
	}
	w.admitted += len(want)
	w.rejected += rejected
}

// TestTickCommandsMatchFormat pins the client load: every tick submits
// "set k<i mod KeySpace> p<self>.<i>" for consecutive i, admits and rejects
// as the admission loop always has, and a run on the Fig. 1 system ends in
// the same final states it always did. A small MaxQueue makes ticks reject.
func TestTickCommandsMatchFormat(t *testing.T) {
	cfg := baseConfig(3)
	cfg.MaxQueue, cfg.BatchSize, cfg.StopAfterWaves = 6, 2, 6
	var watches []*tickWatch
	cfg.Wrap = func(_ types.ProcessID, inner sim.Node) sim.Node {
		w := &tickWatch{Replica: inner.(*Replica), t: t}
		watches = append(watches, w)
		return w
	}
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
	const want = "29075053c808a2ce49efda5ce42daf53df3e22f94f0c24bed0a9d77d19ce4738"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Fig. 1 final states hash to %s, want %s", got, want)
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

package service

import (
	"bytes"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/types"
)

// soakWaves returns the soak length in waves: SOAK_WAVES overrides the
// short default (make soak sets it to 500 — 50× the pre-service 10-wave
// budget; the default keeps `make test` fast while still running far past
// warm-up).
func soakWaves() int {
	if s := os.Getenv("SOAK_WAVES"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 150
}

// TestServiceBoundedMemorySoak runs the service under the rolling-churn
// scenario for many times the old batch-run wave budget and asserts the
// GC-bounded live counters are flat: after warm-up, the median over the
// second half of the snapshot trail must not exceed the first half's.
// Medians, not peaks: a snapshot taken right after a chain commit of
// several waves sees a window up to a wave wider, which the revealed coin
// makes common, while a structure GC misses grows with every wave and
// moves the median. Counters (live DAG vertices, broadcast slots, pending
// pairs, wave gates, coin waves), not wall-clock or heap readings, so the
// assertion is deterministic. It runs with the PRF coin and with the
// revealed coin, whose per-wave share state GC must prune too.
func TestServiceBoundedMemorySoak(t *testing.T) {
	for _, revealed := range []bool{false, true} {
		t.Run("revealed="+strconv.FormatBool(revealed), func(t *testing.T) {
			soak(t, revealed)
		})
	}
}

func soak(t *testing.T, revealed bool) {
	waves := soakWaves()
	def, ok := scenario.Find("rolling-churn")
	if !ok {
		t.Fatal("rolling-churn scenario missing from the registry")
	}
	sc := def.Build(4, 1)
	cfg := Config{
		Trust:          quorum.NewThreshold(4, 1),
		Seed:           1,
		CoinSeed:       2,
		StopAfterWaves: waves,
		RevealedCoin:   revealed,
		Fault:          sc.FaultPlane(),
		Wrap:           sc.WrapNode,
	}
	res := Run(cfg)
	if !res.Stopped {
		t.Fatalf("soak truncated at event budget before wave %d (HitLimit=%v)", waves, res.HitLimit)
	}
	// The replica's tick has no codec, but it is a self-send, which needs
	// none; every other message must encode.
	if res.Metrics.EncodeErrors != 0 {
		t.Errorf("%d sends of a message with no wire codec", res.Metrics.EncodeErrors)
	}
	for p, rep := range res.Replicas {
		snaps := rep.Snapshots
		if len(snaps) < 8 {
			t.Fatalf("replica %v: only %d snapshots over %d waves", p, len(snaps), waves)
		}
		// Warm-up: drop the first quarter (covers startup and the churn
		// windows at virtual time [100,500), which end well inside it on
		// any soak length).
		post := snaps[len(snaps)/4:]
		half := len(post) / 2
		// Flat up to scheduling jitter; unbounded growth over hundreds of
		// extra waves would exceed any constant by orders of magnitude.
		checkFlat := func(name string, get func(core.LiveStats) int) {
			a, b := median(post[:half], get), median(post[half:], get)
			if b > a+2+a/10 {
				t.Errorf("replica %v: %s grew after warm-up: first-half median %d, second-half median %d",
					p, name, a, b)
			}
		}
		checkFlat("live DAG vertices", func(l core.LiveStats) int { return l.DAGVertices })
		checkFlat("live DAG rounds", func(l core.LiveStats) int { return l.DAGRounds })
		checkFlat("broadcast slots", func(l core.LiveStats) int { return l.BroadcastSlots })
		checkFlat("pending pairs", func(l core.LiveStats) int { return l.PendingPairs })
		checkFlat("round trackers", func(l core.LiveStats) int { return l.RoundTrackers })
		checkFlat("wave gates", func(l core.LiveStats) int { return l.WaveCtls })
		checkFlat("coin waves", func(l core.LiveStats) int { return l.CoinWaves })
		// The compacted tail is the log-side bound: with compaction on,
		// the retained tail at any snapshot is 0 by construction, and the
		// final tail covers at most SnapshotEvery waves of traffic.
		if rep.TailLen > rep.Applied/2 {
			t.Errorf("replica %v: retained tail %d out of %d applied — compaction not engaging",
				p, rep.TailLen, rep.Applied)
		}
	}
	compareSnapshots(t, res, "soak")
}

// median returns the median of one live counter over the snapshots.
func median(snaps []Snapshot, get func(core.LiveStats) int) int {
	v := make([]int, len(snaps))
	for i, s := range snaps {
		v[i] = get(s.Live)
	}
	slices.Sort(v)
	return v[len(v)/2]
}

// logMachine is a state machine that records the order it applied
// transactions in.
type logMachine struct {
	StateMachine
	log *[]string
}

func (m logMachine) Apply(tx string) {
	m.StateMachine.Apply(tx)
	*m.log = append(*m.log, tx)
}

// TestServiceSnapshotEquivalence is the snapshot ⇔ log-replay pin across a
// 100-seed sweep: a replica's snapshot state at compaction point k must
// equal a fresh state machine replaying the full ordered log up to k's
// applied count, and replicas sharing a snapshot wave must agree
// byte-for-byte.
func TestServiceSnapshotEquivalence(t *testing.T) {
	const seeds = 100
	for seed := int64(1); seed <= seeds; seed++ {
		logs := make([][]string, 4)
		cfg := Config{
			Trust:          quorum.NewThreshold(4, 1),
			Seed:           seed,
			CoinSeed:       seed * 31,
			StopAfterWaves: 6,
			NewMachine: func(p types.ProcessID) StateMachine {
				return logMachine{StateMachine: NewKV(), log: &logs[p]}
			},
		}
		res := Run(cfg)
		if !res.Stopped {
			t.Fatalf("seed %d: run truncated", seed)
		}
		for p, rep := range res.Replicas {
			log := logs[p]
			for i, s := range rep.Snapshots {
				if s.Applied > len(log) {
					t.Fatalf("seed %d replica %v: snapshot %d applied=%d > log len %d",
						seed, p, i, s.Applied, len(log))
				}
				replay := NewKV()
				for _, tx := range log[:s.Applied] {
					replay.Apply(tx)
				}
				if !bytes.Equal(replay.Snapshot(), s.State) {
					t.Fatalf("seed %d replica %v: snapshot at wave %d (applied %d) != log replay",
						seed, p, s.Wave, s.Applied)
				}
			}
		}
		compareSnapshots(t, res, "seed "+strconv.FormatInt(seed, 10))
	}
}

// TestServiceSurvivesChurnScenarios runs the service under every built-in
// scenario that keeps all processes correct-or-recovering, checking the
// stop condition is reached and snapshots agree.
func TestServiceSurvivesChurn(t *testing.T) {
	def, ok := scenario.Find("rolling-churn")
	if !ok {
		t.Fatal("rolling-churn scenario missing")
	}
	for seed := int64(1); seed <= 3; seed++ {
		sc := def.Build(4, seed)
		cfg := Config{
			Trust:          quorum.NewThreshold(4, 1),
			Seed:           seed,
			CoinSeed:       seed + 100,
			StopAfterWaves: 20,
			Fault:          sc.FaultPlane(),
			Wrap:           sc.WrapNode,
		}
		res := Run(cfg)
		if !res.Stopped {
			t.Fatalf("seed %d: churn run truncated", seed)
		}
		for p, rep := range res.Replicas {
			if rep.DecidedWave < 20 {
				t.Errorf("seed %d: replica %v stuck at wave %d", seed, p, rep.DecidedWave)
			}
		}
		compareSnapshots(t, res, "churn seed "+strconv.FormatInt(seed, 10))
	}
}

package coin

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// shareNode releases its share for wave 1 on init and records when its
// local coin becomes ready.
type shareNode struct {
	trust   quorum.Assumption
	coin    *Shared
	readyAt sim.VirtualTime
}

func (n *shareNode) Init(env sim.Env) {
	n.coin = NewShared(env.Self(), n.trust, NewPRF(5, env.N()))
	n.readyAt = -1
	n.coin.Release(env, 1)
	n.coin.Release(env, 1) // idempotent
}

func (n *shareNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if became, _ := n.coin.Handle(env, from, msg); became {
		n.readyAt = env.Now()
	}
}

func TestSharedCoinRevealsAfterQuorum(t *testing.T) {
	n := 4
	trust := quorum.NewThreshold(n, 1)
	nodes := make([]sim.Node, n)
	raw := make([]*shareNode, n)
	for i := range nodes {
		sn := &shareNode{trust: trust}
		nodes[i] = sn
		raw[i] = sn
	}
	r := sim.NewRunner(sim.Config{N: n, Seed: 1, Latency: sim.UniformLatency{Min: 1, Max: 10}}, nodes)
	r.Run(0)
	var leader types.ProcessID = -1
	for i, sn := range raw {
		if sn.readyAt < 0 {
			t.Fatalf("node %d coin never became ready", i)
		}
		if !sn.coin.Ready(1) {
			t.Fatalf("node %d Ready(1) = false after reveal", i)
		}
		l, ok := sn.coin.Leader(1)
		if !ok {
			t.Fatalf("node %d Leader(1) unavailable", i)
		}
		if leader == -1 {
			leader = l
		} else if leader != l {
			t.Fatalf("coins disagree: %v vs %v", leader, l)
		}
		// Unreleased wave stays hidden.
		if _, ok := sn.coin.Leader(2); ok {
			t.Fatal("wave 2 leader should not be revealed")
		}
		if sn.coin.Ready(2) {
			t.Fatal("wave 2 should not be ready")
		}
	}
}

func TestSharedCoinNotReadyBelowQuorum(t *testing.T) {
	n := 4
	trust := quorum.NewThreshold(n, 1) // quorum = 3
	nodes := make([]sim.Node, n)
	raw := make([]*shareNode, n)
	for i := range nodes {
		sn := &shareNode{trust: trust}
		nodes[i] = sn
		raw[i] = sn
	}
	// Two nodes never release (mute): only 2 shares < quorum of 3.
	nodes[2] = sim.MuteNode{}
	nodes[3] = sim.MuteNode{}
	r := sim.NewRunner(sim.Config{N: n, Seed: 1}, nodes)
	r.Run(0)
	for i := 0; i < 2; i++ {
		if raw[i].coin.Ready(1) {
			t.Fatalf("node %d revealed the coin with only 2 shares", i)
		}
	}
}

func TestShareMsgSize(t *testing.T) {
	enc, err := wire.Marshal(ShareMsg{Wave: 1})
	if err != nil || len(enc) < shareReservedBytes {
		t.Errorf("encoded share size = %d, %v; should model a BLS share (>= %d bytes)",
			len(enc), err, shareReservedBytes)
	}
}

package gather

import (
	"math/rand"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

// TestGate feeds a Gate random arrival orders of ACK, READY and CONFIRM,
// some senders missing and some repeated, and checks each output against
// the one-shot predicates over the senders accumulated so far: READY,
// CONFIRM and opening each fire exactly once, at the arrival where
// Algorithm 3's condition first holds, and never before CONFIRM. A trial
// stops at a random arrival, and a later trial of the same process runs on
// that gate after Reset, beside a NewGate fed the same arrivals: the two
// must answer alike.
func TestGate(t *testing.T) {
	fed, err := quorum.NewFederated(quorum.FederatedConfig{
		N: 10, TopTier: 7, TrustedPeers: 2, Tolerance: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		trust quorum.Assumption
	}{
		{name: "threshold-4-1", trust: quorum.NewThreshold(4, 1)},
		{name: "fig1-counterexample", trust: quorum.Counterexample()},
		{name: "federated-10", trust: fed},
	}
	const (
		kindAck = iota
		kindReady
		kindConfirm
	)
	type arrival struct {
		kind int
		from types.ProcessID
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.trust.N()
			rng := rand.New(rand.NewSource(int64(n)))
			used := map[types.ProcessID]*Gate{}
			for trial := 0; trial < 200; trial++ {
				self := types.ProcessID(rng.Intn(n))
				var order []arrival
				for kind := kindAck; kind <= kindConfirm; kind++ {
					for p := 0; p < n; p++ {
						if rng.Intn(8) == 0 {
							continue // this sender's message never arrives
						}
						order = append(order, arrival{kind, types.ProcessID(p)})
						if rng.Intn(3) == 0 {
							order = append(order, arrival{kind, types.ProcessID(p)})
						}
					}
				}
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				order = order[:rng.Intn(len(order)+1)]

				fresh := NewGate(c.trust, self)
				g, ok := used[self]
				if ok {
					if g.Reset(); g.Open() {
						t.Fatalf("trial %d self %v: a reset gate is open", trial, self)
					}
				} else {
					g = fresh
				}
				used[self] = g
				acks, readies, confirms := types.NewSet(n), types.NewSet(n), types.NewSet(n)
				var sentReady, sentConfirm, opened bool
				for k, a := range order {
					var ready, confirm, open bool
					switch a.kind {
					case kindAck:
						acks.Add(a.from)
						ready = g.Ack(a.from)
						if g != fresh && fresh.Ack(a.from) != ready {
							t.Fatalf("trial %d self %v arrival %d: a reset gate's READY differs from a new gate's", trial, self, k)
						}
					case kindReady:
						readies.Add(a.from)
						confirm = g.Ready(a.from)
						if g != fresh && fresh.Ready(a.from) != confirm {
							t.Fatalf("trial %d self %v arrival %d: a reset gate's CONFIRM differs from a new gate's", trial, self, k)
						}
					case kindConfirm:
						confirms.Add(a.from)
						confirm, open = g.Confirm(a.from)
						if g != fresh {
							if fc, fo := fresh.Confirm(a.from); fc != confirm || fo != open {
								t.Fatalf("trial %d self %v arrival %d: a reset gate's CONFIRM/open differ from a new gate's", trial, self, k)
							}
						}
					}
					wantReady := !sentReady && c.trust.HasQuorumWithin(self, acks)
					wantConfirm := !sentConfirm &&
						(c.trust.HasQuorumWithin(self, readies) || c.trust.HasKernelWithin(self, confirms))
					wantOpen := !opened && c.trust.HasQuorumWithin(self, confirms)
					if ready != wantReady || confirm != wantConfirm || open != wantOpen {
						t.Fatalf("trial %d self %v arrival %d (kind %d from %v): READY %v CONFIRM %v open %v, want %v %v %v",
							trial, self, k, a.kind, a.from, ready, confirm, open, wantReady, wantConfirm, wantOpen)
					}
					sentReady = sentReady || ready
					sentConfirm = sentConfirm || confirm
					opened = opened || open
					if opened && !sentConfirm {
						t.Fatalf("trial %d self %v arrival %d: gate opened before CONFIRM was returned", trial, self, k)
					}
					if g.Open() != opened {
						t.Fatalf("trial %d self %v arrival %d: Open() = %v after opened = %v", trial, self, k, g.Open(), opened)
					}
				}
			}
		})
	}
}

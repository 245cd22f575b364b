package coin

import (
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// ShareMsg is one process's coin share for a wave. In the real protocol
// this carries a threshold-signature share; here the share's only role is
// its *existence* — the value is reconstructed from the run's PRF once
// enough shares arrived (see the package comment on the substitution).
type ShareMsg struct {
	Wave int
}

// Shared is the revealed common coin: the leader of wave w becomes known
// only after coin shares for w have been received from one of the local
// process's quorums. This reproduces the unpredictability discipline of
// DAG-Rider, which reveals the coin only after enough processes finish the
// wave — before that, an adaptive adversary cannot bias the DAG towards or
// away from the future leader.
//
// Shared wraps any Source for the actual values; matching follows from all
// processes wrapping the same Source.
//
// A process counts shares only through its quorum predicate, so Release
// sends a share only to the processes whose quorums contain the sender,
// its audience (quorum.Assumption.Audience): everyone under threshold
// trust, 6 of 30 on the paper's Fig. 1 system.
type Shared struct {
	self     types.ProcessID
	trust    quorum.Assumption
	src      Source
	shares   map[int]*quorum.Tracker
	released map[int]bool
	ready    map[int]bool
	pruned   int // waves below this were garbage-collected (PruneBelow)
}

// NewShared creates the share-gated coin for one process.
func NewShared(self types.ProcessID, trust quorum.Assumption, src Source) *Shared {
	return &Shared{
		self:     self,
		trust:    trust,
		src:      src,
		shares:   map[int]*quorum.Tracker{},
		released: map[int]bool{},
		ready:    map[int]bool{},
	}
}

// Release sends this process's share for a wave to its audience
// (idempotent). Call it when the local wave execution finishes.
func (s *Shared) Release(env sim.Env, wave int) {
	if s.released[wave] {
		return
	}
	s.released[wave] = true
	sim.Multicast(env, sim.Cast{To: s.trust.Audience(s.self), Msg: ShareMsg{Wave: wave}})
}

// Handle consumes a ShareMsg. It reports whether the message belonged to
// the coin and whether the wave's value just became available.
func (s *Shared) Handle(env sim.Env, from types.ProcessID, msg sim.Message) (becameReady bool, handled bool) {
	m, ok := msg.(ShareMsg)
	if !ok {
		return false, false
	}
	if m.Wave < s.pruned {
		return false, true // stale share for a garbage-collected wave
	}
	t, ok := s.shares[m.Wave]
	if !ok {
		t = quorum.NewTracker(s.trust, s.self)
		s.shares[m.Wave] = t
	}
	t.Add(from)
	if !s.ready[m.Wave] && t.HasQuorum() {
		s.ready[m.Wave] = true
		return true, true
	}
	return false, true
}

// Ready reports whether the wave's coin value can be reconstructed.
func (s *Shared) Ready(wave int) bool { return s.ready[wave] }

// PruneBelow drops the share trackers and release/ready flags of waves
// strictly below wave. Consensus GC calls this once a wave is decided and
// behind the horizon: the reveal already happened, so the per-wave maps are
// dead weight in a long-lived run. Leader() for a pruned wave falls back to
// "not revealed"; callers never ask below the decided wave.
func (s *Shared) PruneBelow(wave int) {
	if wave <= s.pruned {
		return
	}
	s.pruned = wave
	for w := range s.shares {
		if w < wave {
			delete(s.shares, w)
		}
	}
	for w := range s.released {
		if w < wave {
			delete(s.released, w)
		}
	}
	for w := range s.ready {
		if w < wave {
			delete(s.ready, w)
		}
	}
}

// Entries returns the number of per-wave entries held (share trackers,
// release and ready flags), which PruneBelow bounds.
func (s *Shared) Entries() int { return len(s.shares) + len(s.released) + len(s.ready) }

// Leader returns the wave's leader if the coin has been revealed.
func (s *Shared) Leader(wave int) (types.ProcessID, bool) {
	if !s.ready[wave] {
		return 0, false
	}
	return s.src.Leader(wave), true
}

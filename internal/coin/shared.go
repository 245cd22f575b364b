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
	self   types.ProcessID
	trust  quorum.Assumption
	src    Source
	waves  map[int]wave
	pruned int // waves below this were garbage-collected (PruneBelow)
}

// wave is what a process keeps of one wave's coin: the shares it counted
// (nil before the first) and whether it released its own. The wave is
// ready once shares holds a quorum, which a Tracker latches.
type wave struct {
	shares   *quorum.Tracker
	released bool
}

// NewShared creates the share-gated coin for one process.
func NewShared(self types.ProcessID, trust quorum.Assumption, src Source) *Shared {
	return &Shared{self: self, trust: trust, src: src, waves: map[int]wave{}}
}

// Release sends this process's share for a wave to its audience
// (idempotent). Call it when the local wave execution finishes.
func (s *Shared) Release(env sim.Env, w int) {
	st := s.waves[w]
	if st.released {
		return
	}
	st.released = true
	s.waves[w] = st
	sim.Multicast(env, sim.Cast{To: s.trust.Audience(s.self), Msg: ShareMsg{Wave: w}})
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
	st := s.waves[m.Wave]
	if st.shares == nil {
		st.shares = quorum.NewTracker(s.trust, s.self)
		s.waves[m.Wave] = st
	}
	ready := st.shares.HasQuorum()
	st.shares.Add(from)
	return !ready && st.shares.HasQuorum(), true
}

// Ready reports whether the wave's coin value can be reconstructed.
func (s *Shared) Ready(w int) bool {
	st := s.waves[w]
	return st.shares != nil && st.shares.HasQuorum()
}

// PruneBelow drops what the coin keeps of the waves strictly below w.
// Consensus GC calls this once a wave is decided and behind the horizon:
// the reveal already happened, so the per-wave entries are dead weight in
// a long-lived run. Leader() for a pruned wave falls back to "not
// revealed"; callers never ask below the decided wave.
func (s *Shared) PruneBelow(w int) {
	if w <= s.pruned {
		return
	}
	s.pruned = w
	for k := range s.waves {
		if k < w {
			delete(s.waves, k)
		}
	}
}

// Entries returns the number of waves the coin keeps, which PruneBelow
// bounds.
func (s *Shared) Entries() int { return len(s.waves) }

// Leader returns the wave's leader if the coin has been revealed.
func (s *Shared) Leader(w int) (types.ProcessID, bool) {
	if !s.Ready(w) {
		return 0, false
	}
	return s.src.Leader(w), true
}

package gather

import (
	"repro/internal/quorum"
	"repro/internal/types"
)

// Gate is one process's ACK/READY/CONFIRM state for one gather execution,
// Algorithm 3 lines 51–59 — the control flow that decides when the process
// may distribute its T set:
//
//	line 51–52: on ACKs from a quorum, send READY to all.
//	line 53–54: on READY from a quorum, send CONFIRM to all.
//	line 55–56: on CONFIRM from a kernel, send CONFIRM to all (Bracha
//	            amplification).
//	line 57–59: on CONFIRM from a quorum, the gate opens.
//
// It is the single implementation of these lines: ConstantRoundNode runs
// one Gate and distributes T when it opens, and every consensus wave of
// internal/core runs one and leaves the wave's round 2 when it opens. Ack,
// Ready and Confirm count a sender and return what the caller must
// broadcast, each output at most once, so the callers keep their own
// message types and send order.
//
// Opening implies CONFIRM was already returned: a quorum of CONFIRMs
// contains a kernel, and Confirm checks the kernel first.
type Gate struct {
	acks, readies, confirms *quorum.Tracker

	sentReady, sentConfirm, open bool
}

// NewGate returns process i's closed gate under a, its three trackers cut
// from one quorum.NewTrackers backing.
func NewGate(a quorum.Assumption, i types.ProcessID) *Gate {
	ts := quorum.NewTrackers(a, i, 3)
	return &Gate{acks: &ts[0], readies: &ts[1], confirms: &ts[2]}
}

// Reset closes the gate and empties its tallies, so it answers every later
// sequence of ACKs, READYs and CONFIRMs as NewGate's gate would. It keeps
// its storage and allocates nothing.
func (g *Gate) Reset() {
	g.acks.Reset()
	g.readies.Reset()
	g.confirms.Reset()
	g.sentReady, g.sentConfirm, g.open = false, false, false
}

// Ack counts p's ACK. It reports whether the caller must broadcast READY:
// true once, when the ACKs first contain a quorum (lines 51–52).
func (g *Gate) Ack(p types.ProcessID) (ready bool) {
	g.acks.Add(p)
	if g.sentReady || !g.acks.HasQuorum() {
		return false
	}
	g.sentReady = true
	return true
}

// Ready counts p's READY. It reports whether the caller must broadcast
// CONFIRM: true once, when the READYs first contain a quorum (lines 53–54)
// unless amplification already sent it.
func (g *Gate) Ready(p types.ProcessID) (confirm bool) {
	g.readies.Add(p)
	return g.readies.HasQuorum() && g.sendConfirm()
}

// Confirm counts p's CONFIRM. It reports whether the caller must broadcast
// CONFIRM, once the CONFIRMs contain a kernel (lines 55–56), and whether
// the gate opened with this CONFIRM, once they contain a quorum (lines
// 57–59). A caller that acts on both broadcasts CONFIRM first.
func (g *Gate) Confirm(p types.ProcessID) (confirm, opened bool) {
	g.confirms.Add(p)
	confirm = g.confirms.HasKernel() && g.sendConfirm()
	if !g.open && g.confirms.HasQuorum() {
		g.open, opened = true, true
	}
	return confirm, opened
}

// sendConfirm reports true the first time it is called.
func (g *Gate) sendConfirm() bool {
	if g.sentConfirm {
		return false
	}
	g.sentConfirm = true
	return true
}

// Open reports whether CONFIRMs from a quorum arrived.
func (g *Gate) Open() bool { return g.open }

// Package broadcast implements the broadcast primitives the paper's
// protocols build on, in the asymmetric-trust model of Alpos et al.
// ("Asymmetric distributed trust", §2.3 of the paper):
//
//   - Reliable broadcast (asymmetric Bracha): SEND → ECHO → READY with the
//     threshold rules generalized to quorums and kernels. A process sends
//     READY after an ECHO quorum, amplifies READY after a READY kernel, and
//     delivers after a READY quorum. Guarantees validity, consistency,
//     integrity and totality for processes in the maximal guild.
//   - Consistent broadcast: SEND → ECHO, deliver on an ECHO quorum. Weaker
//     (no totality) but cheaper.
//   - Plain best-effort broadcast: direct point-to-point sends. Equivalent
//     to reliable broadcast when the sender is correct and useful for the
//     all-correct adversarial-scheduling executions of Appendix A.
//
// The same implementation covers the classic symmetric/threshold protocols:
// instantiate with quorum.Threshold and the quorum/kernel predicates become
// the familiar 2f+1 / f+1 counting rules.
package broadcast

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// Payload is the application data carried by a broadcast. Key must
// identify the content: two payloads are "the same message" exactly when
// their keys are equal. This is what equivocation detection counts on. A
// key need not be short — Bytes returns a SHA-256 digest, but
// rider.VertexPayload returns the vertex's full content, O(block) bytes
// allocated on every call and retained once per tracker map that sees it
// (ROADMAP item 2 replaces it with a digest computed once per payload).
type Payload interface {
	Key() string
}

// Bytes is a convenience Payload for raw data.
type Bytes []byte

// Key implements Payload with a SHA-256 digest.
func (b Bytes) Key() string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// SimSize implements sim.Sizer.
//
//lint:sizer-fallback payloadSize consults Sizer directly when Bytes rides inside an unencodable slot message
func (b Bytes) SimSize() int { return len(b) }

// Slot identifies one broadcast instance: the originator and a per-
// originator sequence number (DAG protocols use the round number).
type Slot struct {
	Src types.ProcessID
	Seq uint64
}

// Deliver is the upcall invoked exactly once per delivered slot.
type Deliver func(env sim.Env, slot Slot, payload Payload)

// Broadcaster is the common interface of the three primitives, so protocol
// code (gather, DAG consensus) can be parameterized over the dissemination
// layer.
type Broadcaster interface {
	// Broadcast disseminates payload in the given slot. Each (originator,
	// seq) slot must be used at most once by a correct process.
	Broadcast(env sim.Env, seq uint64, payload Payload)
	// Handle processes a network message, returning true if the message
	// belonged to this broadcaster.
	Handle(env sim.Env, from types.ProcessID, msg sim.Message) bool
	// PruneBelow discards per-slot state for every slot with sequence
	// number below seq and drops late messages for such slots — the
	// bounded-memory GC hook (see Reliable.PruneBelow for the trade).
	PruneBelow(seq uint64)
	// SlotCount reports the number of slots with live per-slot state (a
	// bounded-memory soak counter).
	SlotCount() int
}

func payloadSize(p Payload) int {
	if s, ok := p.(sim.Sizer); ok {
		return s.SimSize()
	}
	return 32
}

// Message types. Exported fields only (they are "on the wire"); the types
// themselves are unexported to keep the package API small.

type sendMsg struct {
	Slot    Slot
	Payload Payload
}

//lint:sizer-fallback the codec reports unencodable for unregistered payloads, so this approximation is still consulted
func (m sendMsg) SimSize() int { return 16 + payloadSize(m.Payload) }

type echoMsg struct {
	Slot    Slot
	Payload Payload
}

//lint:sizer-fallback the codec reports unencodable for unregistered payloads, so this approximation is still consulted
func (m echoMsg) SimSize() int { return 16 + payloadSize(m.Payload) }

type readyMsg struct {
	Slot    Slot
	Payload Payload
}

//lint:sizer-fallback the codec reports unencodable for unregistered payloads, so this approximation is still consulted
func (m readyMsg) SimSize() int { return 16 + payloadSize(m.Payload) }

// Reliable is the asymmetric reliable broadcast (Bracha-style). One
// Reliable instance per process multiplexes all slots.
type Reliable struct {
	self    types.ProcessID
	trust   quorum.Assumption
	deliver Deliver
	slots   map[Slot]*rbSlot
	nextSeq uint64
	// pruned is the slot-sequence watermark set by PruneBelow: per-slot
	// state below it has been discarded and late messages for those slots
	// are dropped (see PruneBelow for the trade).
	pruned uint64
}

type rbSlot struct {
	sentEcho  bool
	sentReady bool
	delivered bool
	echoes    map[string]*quorum.Tracker // payload key -> echoer tracker
	readies   map[string]*quorum.Tracker // payload key -> ready-sender tracker
}

var _ Broadcaster = (*Reliable)(nil)

// NewReliable creates the reliable broadcast component for one process.
func NewReliable(self types.ProcessID, trust quorum.Assumption, deliver Deliver) *Reliable {
	return &Reliable{
		self:    self,
		trust:   trust,
		deliver: deliver,
		slots:   map[Slot]*rbSlot{},
	}
}

// NextSeq returns a fresh sequence number for this originator.
func (r *Reliable) NextSeq() uint64 {
	s := r.nextSeq
	r.nextSeq++
	return s
}

// Broadcast implements Broadcaster.
func (r *Reliable) Broadcast(env sim.Env, seq uint64, payload Payload) {
	env.Broadcast(sendMsg{Slot: Slot{Src: r.self, Seq: seq}, Payload: payload})
}

func (r *Reliable) slot(s Slot) *rbSlot {
	st, ok := r.slots[s]
	if !ok {
		st = &rbSlot{
			echoes:  map[string]*quorum.Tracker{},
			readies: map[string]*quorum.Tracker{},
		}
		r.slots[s] = st
	}
	return st
}

// record feeds one sender into the per-payload incremental tracker,
// creating it on first use.
func (r *Reliable) record(m map[string]*quorum.Tracker, key string, from types.ProcessID) *quorum.Tracker {
	t, ok := m[key]
	if !ok {
		t = quorum.NewTracker(r.trust, r.self)
		m[key] = t
	}
	t.Add(from)
	return t
}

// Handle implements Broadcaster.
func (r *Reliable) Handle(env sim.Env, from types.ProcessID, msg sim.Message) bool {
	switch m := msg.(type) {
	case sendMsg:
		// Authenticated links: a SEND must come from its claimed source.
		if m.Slot.Src != from {
			return true // drop forgery
		}
		if m.Slot.Seq < r.pruned {
			return true // slot already garbage-collected
		}
		st := r.slot(m.Slot)
		if st.sentEcho {
			return true // echo only the first payload per slot
		}
		st.sentEcho = true
		env.Broadcast(echoMsg{Slot: m.Slot, Payload: m.Payload})
	case echoMsg:
		if m.Slot.Seq < r.pruned {
			return true
		}
		st := r.slot(m.Slot)
		echoers := r.record(st.echoes, m.Payload.Key(), from)
		if !st.sentReady && echoers.HasQuorum() {
			st.sentReady = true
			env.Broadcast(readyMsg{Slot: m.Slot, Payload: m.Payload})
		}
	case readyMsg:
		if m.Slot.Seq < r.pruned {
			return true
		}
		st := r.slot(m.Slot)
		readiers := r.record(st.readies, m.Payload.Key(), from)
		if !st.sentReady && readiers.HasKernel() {
			st.sentReady = true
			env.Broadcast(readyMsg{Slot: m.Slot, Payload: m.Payload})
		}
		if !st.delivered && readiers.HasQuorum() {
			st.delivered = true
			r.deliver(env, m.Slot, m.Payload)
		}
	default:
		return false
	}
	return true
}

// Consistent is the asymmetric consistent broadcast (echo broadcast):
// deliver on an ECHO quorum. It provides consistency but not totality.
type Consistent struct {
	self    types.ProcessID
	trust   quorum.Assumption
	deliver Deliver
	slots   map[Slot]*cbSlot
	// pruned is the slot-sequence watermark set by PruneBelow, exactly as
	// in Reliable: slots below it are dropped on arrival.
	pruned uint64
}

type cbSlot struct {
	sentEcho  bool
	delivered bool
	echoes    map[string]*quorum.Tracker
}

var _ Broadcaster = (*Consistent)(nil)

// NewConsistent creates the consistent broadcast component for one process.
func NewConsistent(self types.ProcessID, trust quorum.Assumption, deliver Deliver) *Consistent {
	return &Consistent{self: self, trust: trust, deliver: deliver, slots: map[Slot]*cbSlot{}}
}

// Broadcast implements Broadcaster.
func (c *Consistent) Broadcast(env sim.Env, seq uint64, payload Payload) {
	env.Broadcast(sendMsg{Slot: Slot{Src: c.self, Seq: seq}, Payload: payload})
}

// Handle implements Broadcaster.
func (c *Consistent) Handle(env sim.Env, from types.ProcessID, msg sim.Message) bool {
	switch m := msg.(type) {
	case sendMsg:
		if m.Slot.Src != from {
			return true
		}
		if m.Slot.Seq < c.pruned {
			return true // slot already garbage-collected
		}
		st := c.slot(m.Slot)
		if st.sentEcho {
			return true
		}
		st.sentEcho = true
		env.Broadcast(echoMsg{Slot: m.Slot, Payload: m.Payload})
	case echoMsg:
		if m.Slot.Seq < c.pruned {
			return true
		}
		st := c.slot(m.Slot)
		key := m.Payload.Key()
		t, ok := st.echoes[key]
		if !ok {
			t = quorum.NewTracker(c.trust, c.self)
			st.echoes[key] = t
		}
		t.Add(from)
		if !st.delivered && t.HasQuorum() {
			st.delivered = true
			c.deliver(env, m.Slot, m.Payload)
		}
	case readyMsg:
		return false // not ours
	default:
		return false
	}
	return true
}

func (c *Consistent) slot(s Slot) *cbSlot {
	st, ok := c.slots[s]
	if !ok {
		st = &cbSlot{echoes: map[string]*quorum.Tracker{}}
		c.slots[s] = st
	}
	return st
}

// Plain is best-effort broadcast: one direct message per recipient,
// delivered on receipt. With a correct sender over reliable links it
// provides the same guarantees as reliable broadcast at one round instead
// of three; the Appendix A executions (all processes correct, adversarial
// scheduling) use it so that the adversary's delivery order acts directly
// on the protocol rounds.
type Plain struct {
	self      types.ProcessID
	deliver   Deliver
	delivered map[Slot]bool
	// pruned is the slot-sequence watermark set by PruneBelow: delivered
	// markers below it are discarded, and late copies of such slots are
	// dropped rather than re-delivered.
	pruned uint64
}

var _ Broadcaster = (*Plain)(nil)

// NewPlain creates the best-effort broadcast component for one process.
func NewPlain(self types.ProcessID, deliver Deliver) *Plain {
	return &Plain{self: self, deliver: deliver, delivered: map[Slot]bool{}}
}

// Broadcast implements Broadcaster.
func (p *Plain) Broadcast(env sim.Env, seq uint64, payload Payload) {
	env.Broadcast(sendMsg{Slot: Slot{Src: p.self, Seq: seq}, Payload: payload})
}

// Handle implements Broadcaster.
func (p *Plain) Handle(env sim.Env, from types.ProcessID, msg sim.Message) bool {
	m, ok := msg.(sendMsg)
	if !ok {
		return false
	}
	if m.Slot.Src != from {
		return true
	}
	if m.Slot.Seq < p.pruned {
		return true // below the GC watermark: already delivered and pruned
	}
	if p.delivered[m.Slot] {
		return true
	}
	p.delivered[m.Slot] = true
	p.deliver(env, m.Slot, m.Payload)
	return true
}

// PruneBelow discards per-slot tracker state for every slot with sequence
// number below seq, and drops late messages for such slots from then on.
// DAG protocols use the round number as the sequence, so the consensus
// layer's GC watermark translates directly. The trade mirrors DAG pruning:
// a process so far behind that it still needs a pruned slot must be caught
// up by state transfer, not by re-running the broadcast (the slots below
// the watermark were already delivered and applied here). Without this the
// per-slot echo/ready maps are the dominant unbounded allocation of a
// long-lived run.
func (r *Reliable) PruneBelow(seq uint64) {
	if seq <= r.pruned {
		return
	}
	r.pruned = seq
	for s := range r.slots {
		if s.Seq < seq {
			delete(r.slots, s)
		}
	}
}

// SlotCount returns the number of slots with live tracker state (a
// bounded-memory soak counter).
func (r *Reliable) SlotCount() int { return len(r.slots) }

// PruneBelow discards per-slot echo trackers below the watermark; the
// semantics match Reliable.PruneBelow (late messages for pruned slots
// are dropped, catch-up is state transfer's job).
func (c *Consistent) PruneBelow(seq uint64) {
	if seq <= c.pruned {
		return
	}
	c.pruned = seq
	for s := range c.slots {
		if s.Seq < seq {
			delete(c.slots, s)
		}
	}
}

// SlotCount returns the number of slots with live tracker state.
func (c *Consistent) SlotCount() int { return len(c.slots) }

// PruneBelow discards delivered-slot markers below the watermark. For
// Plain the marker is the only per-slot state, and dropping it is safe
// exactly because late copies below the watermark are dropped in Handle
// instead of consulting the map (otherwise pruning would reopen the
// at-most-once delivery guarantee to stale duplicates).
func (p *Plain) PruneBelow(seq uint64) {
	if seq <= p.pruned {
		return
	}
	p.pruned = seq
	for s := range p.delivered {
		if s.Seq < seq {
			delete(p.delivered, s)
		}
	}
}

// SlotCount returns the number of slots with a live delivered marker.
func (p *Plain) SlotCount() int { return len(p.delivered) }

// EquivocateSend lets tests and adversarial nodes inject a conflicting SEND
// for a slot directly to one recipient, bypassing the Broadcaster API. Only
// Byzantine behaviours use it.
func EquivocateSend(env sim.Env, to types.ProcessID, slot Slot, payload Payload) {
	env.Send(to, sendMsg{Slot: slot, Payload: payload})
}

// Package broadcast implements the broadcast primitives the paper's
// protocols build on, in the asymmetric-trust model of Alpos et al.
// ("Asymmetric distributed trust", §2.3 of the paper):
//
//   - Reliable broadcast: asymmetric Bracha with the threshold rules
//     generalized to quorums and kernels, addressed by digest (below).
//     Guarantees validity, consistency and integrity for wise processes and
//     totality for the maximal guild.
//   - Plain best-effort broadcast: direct point-to-point sends. Equivalent
//     to reliable broadcast when the sender is correct and useful for the
//     all-correct adversarial-scheduling executions of Appendix A.
//
// The same implementation covers the classic symmetric/threshold protocols:
// instantiate with quorum.Threshold and the quorum/kernel predicates become
// the familiar 2f+1 / f+1 counting rules.
//
// # Reliable broadcast wire protocol
//
// The payload travels once per receiver; votes carry its 32-byte digest d
// (SHA-256 of the payload's canonical wire frame), or name it by reference
// (below). Four messages plus a reply:
//
//	SEND(slot, payload)  source → all; it is also the source's ECHO(d) and
//	                     READY(d)
//	ECHO(slot, d)        → the echoer's audience but the slot's source
//	                     (below), on the first SEND of a slot, from every
//	                     process but the source; the echoer keeps the
//	                     payload
//	READY(slot, d)       → the voter's audience, from every process but the
//	                     slot's source, after an ECHO(d) quorum, a READY(d)
//	                     kernel or delivery
//	FETCH(slot, d)       ask a peer that voted for d for d's payload
//	PAYLOAD(slot, payload)  the reply to FETCH
//
// An ECHO to a process whose ECHO(d) the voter already counted goes as
// ECHO*(slot), and a READY for the digest the voter echoed goes to every
// process but the voter as READY*(slot): the same votes by reference.
//
// A process delivers d's payload after a READY(d) quorum, in which the
// SEND may stand for its source's READY. Two rules keep this the protocol
// of §2.3:
//
// R1 (vote only for what you hold). A process sends READY(d) — after an
// ECHO quorum or a READY kernel — only once it holds a payload whose
// digest, recomputed from the content, is d, and it delivers on a READY(d)
// quorum only with that payload in hand. Whatever it holds it keeps until
// PruneBelow. A SEND that arrives after the quorum completes the slot like
// an early one: the fetch below is an addition to that path, never a
// replacement for it.
//
// R2 (fetch from the voters). When R1 blocks on d, the process sends
// FETCH(slot, d) once to every process it has seen ECHO(d) or READY(d)
// from, and to each later such sender when its vote arrives. Env has no
// timer and none is needed: there is at most one request per (slot, d,
// peer), sent only to a peer that itself voted for d, and at most one
// PAYLOAD per (slot, d, requester), served for as long as the slot lives,
// also after delivery. A reply is accepted only if it was asked for, its
// digest recomputed from the content is d, and R1 is still blocked on d; a
// mismatch changes nothing and leaves the fetch running.
//
// Safety. With R1 a run of this protocol is a run of payload-carrying
// Bracha in which the ECHO(m)/READY(m) messages reach a process no earlier
// than m itself — a schedule asynchrony already allows — so consistency and
// integrity for wise processes carry over, given collision resistance.
//
// Totality, under asymmetric trust (not the threshold argument). By R1
// every correct sender of READY(d) holds d's payload, and so does every
// correct sender of ECHO(d), which echoed the SEND it received. What
// blocks a process is one of its own ECHO quorums, READY kernels or READY
// quorums for d. A wise process's quorums and kernels are never contained
// in the actual fault set F: F lies inside one of its fail-prone sets, two
// of its quorums meet outside it (Q ∩ Q' ⊄ F by B³), and a kernel inside F
// would miss the quorum that avoids F, which availability guarantees. So
// the set that triggered the fetch contains a correct holder, which
// replies, and a guild member blocked by R1 is unblocked: totality for the
// maximal guild is kept. A naive process gets no such guarantee — the set
// that blocked it may be entirely faulty and never answer — exactly as it
// had none before; it still completes the slot if the SEND reaches it.
//
// # Audiences
//
// A vote goes only to the processes that can count it. Process j acts on
// an ECHO or READY only through its own quorum and kernel predicates, and
// both depend only on U_j, the union of j's quorums: m contains a quorum
// of j iff m ∩ U_j does, and m meets every quorum of j iff m ∩ U_j does.
// So a voter sends to its audience (quorum.Assumption.Audience), the
// processes j with the voter in U_j, and Handle drops a vote from outside
// U_self before it touches any state. This is the protocol above in which
// j ignores every vote from outside U_j, and ignoring them changes no
// predicate: every rule fires on the same votes as before. R1 is
// unchanged. The quorum or kernel that blocks R2 lies inside U_j, so the
// totality argument above holds word for word, and R2 asks at most |U_j|
// voters per digest instead of n−1. Under threshold trust, and wherever
// every process lies in a quorum of every other, the audience is everyone
// (nil) and a vote goes to every process as before. On the paper's Fig. 1
// system each process has a single quorum of 6, so the votes of one kind
// cross at most 169 links instead of all 870 (a copy to the voter itself
// crosses none). The source casts neither kind (below), so a slot's READYs
// cross 169 − |Audience(src) ∖ {src}|, 163.4 on average, and nobody echoes
// to the source, so its ECHOs cross |U_src ∖ {src}| fewer again, 157.7 on
// average. A process need not lie in its own quorum (19
// of Fig. 1's 30 do not), so it may never hear its own vote, and nothing
// relies on hearing it. The SEND still goes to everyone, since everyone
// needs the payload; FETCH and PAYLOAD are point to point.
//
// # Votes by reference
//
// A vote need not carry a digest its receiver can name without it. The two
// kinds of vote name it by different messages.
//
// ECHO*(s), an ECHO by reference, names the digest its receiver echoed. A
// correct process echoes at most once per slot — it echoes the first SEND
// it handles — so once voter i has counted j's ECHO(d) for slot s, "the
// digest j echoed in s" names d at j. So i sends its ECHO(d) for s to such
// a j as ECHO*(s): the slot without the 32 digest bytes. j counts it, like
// a full ECHO, for the digest it echoed in s, which its slot keeps as its
// first digest (the SEND's digest takes that place when it is not first
// already). j drops an ECHO* for a slot it has not echoed in. No ECHO goes
// to a slot's source at all (see "The SEND is its source's READY").
//
// READY*(s), a READY by reference, names the digest its voter echoed to
// its receiver. A voter sends its READY to its audience: the processes it
// sent its ECHO to, only after that ECHO, and the slot's source, which
// knows the digest every correct process echoed in its slot. So a voter i
// that echoed d in s, in full or by reference, sends its READY(d) as
// READY*(s) to every member of its audience other than itself. It sends
// the READY in full
// only if it did not echo d: its payload came by FETCH, or it echoed
// another digest. j resolves READY*(s) from i to the digest for which it
// counted i's ECHO in s, or, when j is the source of s, to the digest its
// Broadcast recorded (below). A correct voter's ECHO is counted for one
// digest; a Byzantine voter's may be counted for several that the slot
// already held, and then its READY* counts for the slot's first digest if
// that is one of them, else for the least, the same in every run. If j has not
// counted i's ECHO yet, it holds one bit for (s, i) and counts the READY
// right after the ECHO, for the ECHO's digest. This happens only where
// links are not FIFO, as in the simulator; TCP links are, so over TCP
// nothing is ever held: the voter's ECHO crosses the same link first, and
// at the slot's source a READY* resolves through Broadcast's record (one
// that arrives before Broadcast is dropped). The held bit goes when the
// slot delivers or when PruneBelow empties it.
//
// Every other vote goes in full: an ECHO to a process whose ECHO i has not
// counted, or counted for another digest (the source equivocated); a READY
// for a digest i did not echo; any vote to i itself (a self-send crosses
// no link); and a late SEND's ECHO after delivery, when i keeps no tally.
// There is no other path: the rule decides the form of every vote, per
// destination. j drops a reference from outside U_j before it touches any
// state.
//
// Safety. A correct j counts a vote by reference from a correct i for
// exactly the vote i cast. An ECHO* counts for the one digest j echoed,
// which is the d whose ECHO i counted from j. A READY* counts for the
// digest of i's ECHO, which is d, since i echoed d. A Byzantine i gains
// nothing from references that a full vote lacks. An ECHO* makes j count
// an ECHO for the digest j echoed, and a READY* makes it count a READY for
// a digest it counted i's ECHO for. i could send either in full, and the
// full vote would count just the same: a vote for a digest the slot holds
// is never dropped as spam. A held READY* counts only once i's ECHO does,
// as a full READY sent right then would. A reference names a digest the
// slot holds, so it never adds one, and the 1 + 2|U_self| bound below
// stands. A Byzantine voter can make a slot hold at most its own bit, and
// only in a slot that any of its full votes could open as well.
//
// Totality. On reliable links no vote is lost, and only a READY* is ever
// delayed: until the same voter's ECHO. A correct voter sends every vote
// to the same process, in the same send, as a full vote would go. That
// process counts the vote for the same digest. A held READY* waits for an
// ECHO that the same correct voter sent to the same process earlier, which
// reliable links deliver. That process drops the ECHO only once it has
// delivered or pruned the slot, when it has no use for the READY either: a
// correct voter's ECHO is never spam, and it sends an ECHO* only to a
// process whose ECHO it counted, which has echoed. On a link that loses
// messages, though, a lost ECHO also loses its voter's READY at that
// receiver, where a full READY would still have counted: the READY* stays
// held until the slot delivers or is pruned (Reliable.Waiting). `make
// scenarios` counts these: over 8 seeds each, 17 on partition-drop, 15 on
// churn-lossy and none where no message is lost, with every verdict as
// before. An ECHO*
// names a digest whose payload its receiver holds, so it never blocks R1.
// A READY* may name one the receiver does not hold, when the source
// equivocated. Then it blocks R1 as the full READY would, and R2 asks the
// voters, the READY*'s voter among them, which holds the payload it echoed.
// The READY or FETCH that a vote triggers carries its digest in a body
// that holds it: the triggering full vote's, this process's own ECHO's, or
// a new one. It never sends on a body that arrived without the digest. So
// the R2 argument above stands word for word.
//
// Schedules. The form is chosen per destination inside one multicast act
// (sim.Cast), whose sends still leave one per destination in ID order, so
// the simulator draws every delay in the same order. Neither a fault plane
// nor a latency model reads a message's type or size, and an ECHO* never
// waits. A held READY*, though, counts later than a full READY would have,
// so on the simulator's uniform links schedules move. Measured when the
// SEND became its source's ECHO, before it became its READY: on the
// benchmark's sim_asym_n30 (Fig. 1, links of 1–20, seeds 1–5, 10 waves)
// 3.1 % of the READY*s that reach a process are held, and the service's
// commit latency is 1.2 % higher at the median and 0.5 % at the 99th percentile than with
// every READY in full. On sim_faults_n7's scenarios (n = 7, seeds 1–20)
// 7.4 % are held. Over FIFO links, sim.ConstantLatency's and TCP's,
// nothing is held: no message count, delivery time or output moves, and
// the bytes fall by exactly 32 per reference. A reference is about 3
// bytes of a 35-byte vote.
//
// # The SEND is its source's ECHO
//
// A correct source would echo the digest of its own SEND, to its
// audience, as soon as it handled that SEND. The SEND already names that
// digest and reaches every process over the same authenticated link. So
// the source casts no ECHO for its own slot, and a process that handles a
// SEND from the slot's source counts it as that source's ECHO of the
// SEND's digest, provided the source lies in U_self, before it casts its
// own. This is the classic economy of Bracha's protocol. It took
// |Audience(src) ∖ {src}| messages out of every slot: 3 of 27 under
// threshold(4, 1), 6 of 90 under threshold(7, 2).
//
// Broadcast records the source's own slot as echoed before the SEND
// leaves: its digest first, its payload held. The simulator delays a
// self-send like any other, so a vote by reference can reach the source
// before its own SEND does, and the record resolves it. No rule runs in
// Broadcast, so it never delivers. When the self-addressed SEND arrives,
// it only counts the source's own READY (next section), if the source
// lies in U_self, and applies the rules. A process's own slot is
// Broadcast's alone: a SEND from itself that no Broadcast recorded, which
// only a Byzantine process's own code or a test (EquivocateSend) makes, is
// dropped before it touches any state.
//
// A source knows the digest every correct process echoed in its slot: its
// own SEND's. So the source counts a READY* for its own slot for that
// digest at once, without waiting for the voter's ECHO, and holds none. A
// READY* that comes before Broadcast is dropped: a correct voter cannot
// vote before the SEND exists.
//
// Safety. A correct source's SEND names exactly the digest its ECHO would,
// and reaches a superset of its audience, so every process counts the
// same vote as before, only sooner. A Byzantine source gains nothing that
// a full ECHO(d) to the same receiver, right after the SEND, would not
// already give it: a receiver handles one SEND per slot and counts it for
// the digest it holds. The spam rule still caps a slot at 1 + 2|U_self|
// digests. At a correct source, a READY* counts for the SEND's digest,
// as a full READY for that digest from the same voter would. R1 holds,
// because a source holds its own payload. Totality is unchanged: the
// source's vote reaches exactly the processes its ECHO used to reach, its
// audience, all of whom receive the SEND.
//
// # The SEND is its source's READY
//
// A correct source's READY can name only the digest its SEND names, so the
// SEND stands in for that READY too, and a source that casts no READY has
// no use for an ECHO. Four rules:
//
//  1. The source casts no READY in its own slot. Broadcast records the
//     slot as READY-sent as well as echoed, and the self-addressed SEND
//     counts the source's own READY if it lies in U_self.
//  2. A receiver counts the SEND as its source's READY toward a READY
//     quorum (quorum.Tracker.HasQuorumWith), not toward a READY kernel,
//     and only if the source lies in U_self. So the SEND helps delivery
//     but starts no READY amplification: on Fig. 1 a kernel is one member
//     of a process's single quorum, and a SEND counted as a kernel member
//     sets off READYs at processes its own copy has not reached yet, which
//     R1 blocks and R2 then fetches for (5 907 FETCHes against 78 on the
//     seed-1 Fig. 1 service run).
//  3. A process that delivers without having cast its READY casts it then,
//     for the delivered digest, whose payload it holds (R1). A READY quorum
//     of real votes contains a READY kernel, since any two quorums of a
//     process intersect, but one that the SEND completes need not: two
//     quorums of p may meet only in the source. This rule keeps a delivered
//     slot READY-sent, which "Slot state" relies on to drop later votes.
//  4. No ECHO or ECHO* goes to a slot's source (sim.Cast.Except). There an
//     ECHO could only feed the source's READY rule, which rule 1 retires.
//     The source resolves a READY* for its own slot through Broadcast's
//     record, and it holds its payload, so R2 never asks it to fetch.
//     Receivers still count the SEND as the source's ECHO in their own echo
//     tally.
//
// Together they take 2|Audience(src) ∖ {src}| link messages out of every
// slot under threshold trust, where U_src is everyone: 6 of 24 under
// threshold(4, 1), 12 of 84 under threshold(7, 2).
//
// Safety. Consistency for wise processes rests on one fact: two READY
// quorums meet in a correct process, and a correct process votes READY for
// one digest per slot, the same to every receiver. A correct source's SEND
// names one digest and reaches every process, so as a READY it is such a
// vote; a Byzantine source's SEND stands where its READY, which it may
// send to anyone, could stand anyway, and the correct process in the
// intersection is not it. A READY cast at delivery (rule 3) names the
// delivered digest, whose READY quorum contains a correct process: one
// that readied that digest by the rules, or a correct source, whose SEND
// names the one digest correct processes echo. Counting the SEND toward
// fewer predicates than a full READY can only make a rule fire later.
//
// Liveness. With a correct source every guild member echoes the SEND,
// gets an ECHO quorum inside the guild and casts its READY, as before, and
// the source's vote reaches its whole audience with the SEND. With a
// Byzantine source its vote was never part of the totality argument: the
// kernel that a guild member receives is made of correct READY senders.
//
// # Slot state
//
// Every DAG vertex is one slot, so a process keeps n slots per round, and
// the layout is chosen so that a slot in steady state allocates nothing:
//
//   - State lives in one row per sequence number: n slots, by value,
//     indexed by source. A message whose Slot.Src lies outside [0, n) is
//     dropped before it touches any state; otherwise a vote for a
//     nonexistent source would open a slot that can never deliver.
//   - A slot holds the first digest it hears of in place, with its payload
//     and pointers to its tally and fetch sets, and the index of its held
//     READYs by reference, in 80 bytes; the digest of the SEND it echoes
//     takes the first place. Further
//     digests, which only an equivocating sender or voter produces, go to a
//     map allocated on the second. A vote that would add a digest is
//     dropped when its voter is already counted in a tracker of the same
//     kind for another digest of the slot, and votes from outside U_self
//     never reach a slot, and a vote by reference counts for a digest the
//     slot holds, so a slot holds at most 1 + 2|U_self| digests:
//     the SEND's and one per voter in U_self and kind of vote (13 on
//     Fig. 1).
//   - Rows hold no vote trackers. Every digest of an undelivered slot
//     borrows a tally, its echo and ready tracker pair, from the Reliable's
//     pool when the slot first hears of it, and the slot hands all its
//     tallies back, reset, when it delivers or when PruneBelow empties it.
//     So a process keeps one tally per digest of its pending slots, not two
//     trackers per slot of the GC window. An empty pool is refilled with n
//     tallies whose 2n trackers come from one quorum.NewTrackers call; the
//     pool's capacity grows only then, to the number of tallies cut, so
//     handing one back never allocates. The tally of the digest this
//     process echoed also keeps its ECHO's body until its READY leaves
//     (below).
//   - A slot that holds READYs by reference keeps their voters in a set of
//     n bits taken from the Reliable's free list of such sets, and gives
//     it back, cleared, when it delivers or PruneBelow empties it. The
//     slot names its set by a 4-byte index, in padding it had anyway. All
//     the sets' words share one array, which an empty free list extends by
//     n sets at once, so handing a set back never allocates.
//   - R2's fetch sets, the voters asked for a digest's payload and the
//     requesters served it, are empty in almost every slot, so a digest
//     holds them behind one pointer, nil until R2 first asks or serves for
//     it. It then borrows the pair from a second pool, refilled like the
//     tally pool with n pairs whose 2n sets come from one types.NewSets
//     call. The pair goes back, cleared, only when PruneBelow empties the
//     slot, not at delivery: served outlives delivery (R2).
//   - Once a slot has delivered, Handle drops its ECHOs, READYs and
//     PAYLOADs before they touch any state. That changes no output. This
//     process has sent its READY by the time it delivers: a READY quorum of
//     real votes contains a READY kernel, since any two quorums of a
//     process intersect (B³), and one that the SEND completed casts it at
//     delivery (rule 3 above). So no later vote, for any digest, can make
//     it send anything, and a PAYLOAD is accepted only while a rule waits
//     for it. A late SEND is still echoed and its payload kept, and a
//     delivered slot still serves FETCH for every digest whose payload it
//     holds (R2): what a digest keeps after delivery is its payload and its
//     served set.
//   - Rows are made a chunk of dag.RowChunk at a time, the chunk's slots
//     sharing one array. The row a sequence number needs is taken and the
//     rest wait on a free list.
//   - PruneBelow empties the rows below the watermark — pending tallies,
//     held sets and fetch sets handed back, payloads cleared, spill maps
//     dropped —
//     and puts them on the same free list, which later sequence numbers
//     draw from before a new chunk is cut. The rows stay a sparse map: only
//     a sequence number with a message opens a row, so a far-future one
//     costs a Byzantine sender one row, not one per sequence number in
//     between.
//   - All seven messages are single-pointer structs, which an interface
//     holds without boxing. Their bodies are (slot, payload) for a SEND or
//     PAYLOAD and (slot, digest) for an ECHO, READY or FETCH, in full or by
//     reference; a vote by reference points at its full form's body, but
//     only the slot goes on the wire. A body is never written after it is
//     handed out, so a Reliable reuses one where it can: an ECHO or READY
//     goes in both forms with one body, a READY completed by a full ECHO
//     or READY is sent with that vote's body, and a FETCH with the body of
//     the vote that blocked on the payload. A READY that a SEND, a PAYLOAD
//     or a vote by reference completed is sent with the body of this
//     process's ECHO of its digest. A new body is cut only for a SEND, an
//     ECHO, a PAYLOAD, and a READY or FETCH that no full vote completed
//     for a digest this process did not echo, or sourced and so did not
//     echo in a message of its own, from two process-wide
//     wire.Carvers, one
//     per body type, in chunks of 64 indexed atomically; the codec cuts
//     the bodies it decodes off the wire from the same two.
//     A chunk is never reused or recycled with the rows: a message may
//     still sit in a lagging receiver's queue or a TCP outbox after its
//     sender pruned the slot, and several receivers read one body (over
//     TCP, several peers' writers at once). The garbage collector frees a
//     chunk with its last message, so a SEND chunk pins at most 64
//     payloads until then.
package broadcast

import (
	"bytes"
	"crypto/sha256"
	"math/bits"
	"slices"

	"repro/internal/dag"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// Digest is a payload's content address.
type Digest = [sha256.Size]byte

// Payload is the application data carried by a broadcast. Digest must
// identify the content: two payloads are "the same message" exactly when
// their digests are equal — equivocation detection, the vote trackers and
// the fetch path all count on it. It is the SHA-256 of the payload's
// canonical wire frame (wire.Digest), so a payload that is re-encoded by a
// fetch reply keeps its address. Reliable calls it once per Broadcast and
// once per PAYLOAD or SEND from another process it handles (its own SEND
// counts only as Broadcast recorded it); implementations with large
// content cache it.
type Payload interface {
	Digest() Digest
}

// Bytes is a convenience Payload for raw data.
type Bytes []byte

// Digest implements Payload.
func (b Bytes) Digest() Digest {
	sum, err := wire.Digest(b)
	if err != nil {
		panic(err) // Bytes registers its codec at init
	}
	return sum
}

// Slot identifies one broadcast instance: the originator and a per-
// originator sequence number (DAG protocols use the round number).
type Slot struct {
	Src types.ProcessID
	Seq uint64
}

// Deliver is the upcall invoked exactly once per delivered slot.
type Deliver func(env sim.Env, slot Slot, payload Payload)

// Broadcaster is what the three-round gather needs of its dissemination
// layer, so it runs over either primitive.
type Broadcaster interface {
	// Broadcast disseminates payload in the given slot. Each (originator,
	// seq) slot must be used at most once by a correct process.
	Broadcast(env sim.Env, seq uint64, payload Payload)
	// Handle processes a network message, returning true if the message
	// belonged to this broadcaster.
	Handle(env sim.Env, from types.ProcessID, msg sim.Message) bool
}

// Message types. Exported fields only (they are "on the wire"); the types
// themselves are unexported to keep the package API small.

// send is the body of a SEND. It is never written after the message
// carrying it is sent.
type send struct {
	Slot    Slot
	Payload Payload
}

// sendMsg holds only a pointer to its body, like echoMsg and readyMsg, so
// an interface holds it without boxing; m.Slot and m.Payload are promoted
// from it.
type sendMsg struct{ *send }

// sends is the carver every SEND body of the process is cut from: those
// this process broadcasts and those the codec decodes.
var sends wire.Carver[send]

// newSend returns a body holding (slot, payload), cut from sends.
func newSend(slot Slot, payload Payload) *send {
	return sends.Cut(send{Slot: slot, Payload: payload})
}

// vote is the body of an ECHO or a READY. It is never written after the
// message carrying it is sent (see "Slot state" in the package comment).
type vote struct {
	Slot   Slot
	Digest Digest
}

// votes is the carver every ECHO and READY body of the process is cut
// from: those this process's Reliables send and those the codec decodes.
var votes wire.Carver[vote]

// newVote returns a body holding (slot, d), cut from votes.
func newVote(slot Slot, d Digest) *vote { return votes.Cut(vote{Slot: slot, Digest: d}) }

// echoMsg, readyMsg and fetchMsg hold only a pointer to their body, so an
// interface holds them without boxing; m.Slot and m.Digest are promoted
// from it.
type echoMsg struct{ *vote }

type readyMsg struct{ *vote }

// echoRefMsg and readyRefMsg are an ECHO and a READY by reference: they
// vote for the digest their receiver echoed in body.Slot (see "Votes by
// reference" in the package comment). A sender points one at the body of
// its full vote, but only the slot goes on the wire, so a handler reads
// body.Slot and nothing else, and never sends the body on.
type echoRefMsg struct{ body *vote }

type readyRefMsg struct{ body *vote }

// fetchMsg asks a process that voted for Digest in Slot for the payload.
type fetchMsg struct{ *vote }

// payloadMsg answers a fetchMsg; the requester addresses it by the digest
// it recomputes from Payload. Its body is a SEND body.
type payloadMsg struct{ *send }

// Reliable is the asymmetric reliable broadcast (Bracha-style, digest
// addressed — see the package comment). One Reliable instance per process
// multiplexes all slots.
type Reliable struct {
	self    types.ProcessID
	n       int
	trust   quorum.Assumption
	deliver Deliver
	// rows holds, per sequence number, the state of its n slots indexed by
	// source; free holds the rows PruneBelow emptied and the unused rows of
	// the last chunk, for later sequence numbers.
	rows map[uint64][]rbSlot
	free [][]rbSlot
	// pool holds the tallies no undelivered slot holds; its capacity is at
	// least cut, the number of tallies made, so one handed back never
	// grows it.
	pool []*tally
	cut  int
	// fetchPool and fetchCut are the same for fetch sets, which a digest
	// holds from R2's first request or reply for it until PruneBelow.
	fetchPool []*fetchSets
	fetchCut  int
	// heldWords holds the sets of voters whose READY by reference a slot
	// holds, heldWordsPer words each; heldFree lists the free ones by
	// index (rbSlot.held). held counts the READYs by reference ever held
	// (Held).
	heldWords    []uint64
	heldWordsPer int
	heldFree     []int32
	held         int
	// everyone is the set of all n processes: a READY by reference goes to
	// every member of the audience other than the voter (advance).
	everyone types.Set
	// live counts the slots with state, over all rows (SlotCount).
	live int
	// pruned is the slot-sequence watermark set by PruneBelow: per-slot
	// state below it has been discarded and late messages for those slots
	// are dropped (see PruneBelow for the trade).
	pruned uint64
}

// rbSlot is one slot's state, 80 bytes. It holds the first digest it hears
// of in place; only a second digest, which only an equivocating sender or
// voter produces, allocates.
type rbSlot struct {
	// live is set by the first SEND, ECHO or READY of the slot, whose
	// digest is first.
	live      bool
	sentEcho  bool
	sentReady bool
	delivered bool
	first     Digest
	// held is 1 + the index of the set of voters whose READY by reference
	// came before their ECHO was counted (Reliable.heldWords), taken on the
	// first such READY; 0 otherwise, and again once the slot delivers.
	held   int32
	value  rbValue             // what the slot knows about first
	others map[Digest]*rbValue // the same for every later digest
}

// rbValue is what a slot knows about one digest, in 32 bytes: the two
// pointers below and the payload.
type rbValue struct {
	// payload is the content behind the digest once this process holds it
	// (R1): from the SEND it echoed or from an accepted fetch reply.
	payload Payload
	// tally counts the digest's votes, borrowed from the pool while the
	// slot is undelivered; nil once it has delivered.
	tally *tally
	// fetch is the digest's R2 bookkeeping, borrowed from the fetch pool
	// when R2 first asks or serves for it and kept, also after delivery,
	// until PruneBelow empties the slot; nil until then.
	fetch *fetchSets
}

// tally is what an undelivered slot counts for one digest: votes[echoes]
// counts its ECHOs, votes[readies] its READYs, and echo is the body of
// this process's ECHO of the digest until it sends its READY, which reuses
// it (advance).
type tally struct {
	votes [2]quorum.Tracker
	echo  *vote
}

const (
	echoes  = 0
	readies = 1
)

// fetchSets is one digest's R2 bookkeeping: fetchSets[asked] holds the
// voters sent a fetchMsg for it, fetchSets[served] the requesters sent its
// payload.
type fetchSets [2]types.Set

const (
	asked  = 0
	served = 1
)

var _ Broadcaster = (*Reliable)(nil)

// NewReliable creates the reliable broadcast component for one process.
func NewReliable(self types.ProcessID, trust quorum.Assumption, deliver Deliver) *Reliable {
	return &Reliable{
		self:         self,
		n:            trust.N(),
		trust:        trust,
		deliver:      deliver,
		rows:         map[uint64][]rbSlot{},
		everyone:     types.FullSet(trust.N()),
		heldWordsPer: (trust.N() + 63) / 64,
	}
}

// Broadcast implements Broadcaster. It records the slot as echoed and as
// READY-sent before the SEND leaves, since the SEND is this process's ECHO
// and its READY (see "The SEND is its source's ECHO" and "The SEND is its
// source's READY"): a READY by reference that reaches this process before
// its own SEND resolves to the payload's digest. No rule runs here, and so
// no deliver upcall: the self-addressed SEND applies them.
func (r *Reliable) Broadcast(env sim.Env, seq uint64, payload Payload) {
	slot := Slot{Src: r.self, Seq: seq}
	if st := r.open(slot); st != nil && !st.sentEcho {
		st.sentEcho, st.sentReady = true, true
		r.echoed(st, payload.Digest()).payload = payload
	}
	sim.Multicast(env, sim.Cast{Msg: sendMsg{newSend(slot, payload)}})
}

// open returns slot s, creating its row on first use, or nil when s lies
// below the watermark or names a source outside [0, n). A nil slot drops
// the message before it touches any state.
func (r *Reliable) open(s Slot) *rbSlot {
	if s.Seq < r.pruned || s.Src < 0 || int(s.Src) >= r.n {
		return nil
	}
	row, ok := r.rows[s.Seq]
	if !ok {
		row = r.newRow()
		r.rows[s.Seq] = row
	}
	return &row[s.Src]
}

// find returns slot s if it has state, without creating any.
func (r *Reliable) find(s Slot) *rbSlot {
	row, ok := r.rows[s.Seq]
	if !ok || s.Src < 0 || int(s.Src) >= r.n || !row[s.Src].live {
		return nil
	}
	return &row[s.Src]
}

// newRow returns an empty row of n slots from the free list. An empty
// list is refilled with a chunk of dag.RowChunk rows whose slots share one
// array, the list grown once to hold them.
func (r *Reliable) newRow() []rbSlot {
	if len(r.free) == 0 {
		slots := make([]rbSlot, dag.RowChunk*r.n)
		r.free = slices.Grow(r.free, dag.RowChunk)
		for i := 0; i < len(slots); i += r.n {
			r.free = append(r.free, slots[i:i+r.n:i+r.n])
		}
	}
	k := len(r.free)
	row := r.free[k-1]
	r.free = r.free[:k-1]
	return row
}

// value returns what st knows about digest d, creating it on first use;
// a digest created while st is undelivered borrows a tally from the pool.
func (r *Reliable) value(st *rbSlot, d Digest) *rbValue {
	if !st.live {
		st.live, st.first = true, d
		r.live++
		st.value.tally = r.borrow()
	}
	if v := st.lookup(d); v != nil {
		return v
	}
	if st.others == nil {
		st.others = map[Digest]*rbValue{}
	}
	v := &rbValue{}
	if !st.delivered { // else a late SEND's digest, kept only to serve FETCH
		v.tally = r.borrow()
	}
	st.others[d] = v
	return v
}

// echoed returns what st knows about d, the digest of the SEND this
// process echoes in st, and makes d st's first, swapping places with the
// digest that was first if need be: a vote by reference names the digest
// its receiver echoed, and resolves to st.first.
func (r *Reliable) echoed(st *rbSlot, d Digest) *rbValue {
	v := r.value(st, d)
	if st.first == d {
		return v
	}
	delete(st.others, d)
	st.others[st.first] = v
	*v, st.value = st.value, *v
	st.first = d
	return &st.value
}

// borrow takes a tally from the pool. An empty pool is refilled with n
// tallies, whose 2n trackers come from one NewTrackers call, and only then
// does its capacity grow, to the number of tallies cut.
func (r *Reliable) borrow() *tally {
	if len(r.pool) == 0 {
		trackers := quorum.NewTrackers(r.trust, r.self, 2*r.n)
		tallies := make([]tally, r.n)
		r.cut += r.n
		r.pool = slices.Grow(r.pool, r.cut)
		for i := range tallies {
			tallies[i].votes = [2]quorum.Tracker{trackers[2*i], trackers[2*i+1]}
			r.pool = append(r.pool, &tallies[i])
		}
	}
	k := len(r.pool) - 1
	t := r.pool[k]
	r.pool = r.pool[:k]
	return t
}

// release hands every tally of st back to the pool, reset, and its set of
// held READYs by reference back to the free list, cleared: st has
// delivered or is being pruned.
func (r *Reliable) release(st *rbSlot) {
	if st.held != 0 {
		clear(r.heldSet(st))
		r.heldFree = append(r.heldFree, st.held)
		st.held = 0
	}
	give := func(v *rbValue) {
		if v.tally != nil {
			v.tally.votes[echoes].Reset()
			v.tally.votes[readies].Reset()
			v.tally.echo = nil
			r.pool = append(r.pool, v.tally)
			v.tally = nil
		}
	}
	give(&st.value)
	for _, v := range st.others {
		give(v)
	}
}

// borrowFetch returns v's fetch sets, borrowing them from the fetch pool on
// first use. An empty pool is refilled like the tally pool: n pairs whose 2n
// sets share one NewSets call.
func (r *Reliable) borrowFetch(v *rbValue) *fetchSets {
	if v.fetch != nil {
		return v.fetch
	}
	if len(r.fetchPool) == 0 {
		sets := types.NewSets(r.n, 2*r.n)
		r.fetchCut += r.n
		r.fetchPool = slices.Grow(r.fetchPool, r.fetchCut)
		for i := 0; i < len(sets); i += 2 {
			r.fetchPool = append(r.fetchPool, (*fetchSets)(sets[i:i+2]))
		}
	}
	k := len(r.fetchPool) - 1
	v.fetch = r.fetchPool[k]
	r.fetchPool = r.fetchPool[:k]
	return v.fetch
}

// unfetch hands v's fetch sets, if it has any, back to the pool, cleared;
// only reset calls it, which then empties the slot.
func (r *Reliable) unfetch(v *rbValue) {
	if f := v.fetch; f != nil {
		f[asked].Clear()
		f[served].Clear()
		r.fetchPool = append(r.fetchPool, f)
	}
}

// hold records a READY by reference from voter from that st cannot
// resolve yet, taking a set for st from the free list on first use. An
// empty list is refilled with n sets, whose words extend heldWords.
func (r *Reliable) hold(st *rbSlot, from types.ProcessID) {
	if st.held == 0 {
		if len(r.heldFree) == 0 {
			k := len(r.heldWords) / r.heldWordsPer
			r.heldWords = append(r.heldWords, make([]uint64, r.n*r.heldWordsPer)...)
			r.heldFree = slices.Grow(r.heldFree, r.n)
			for i := range r.n {
				r.heldFree = append(r.heldFree, int32(k+i+1))
			}
		}
		k := len(r.heldFree) - 1
		st.held = r.heldFree[k]
		r.heldFree = r.heldFree[:k]
	}
	w, bit := r.heldBit(st, from)
	if *w&bit == 0 {
		*w |= bit
		r.held++
	}
}

// heldSet returns the words of st's set of held READYs by reference.
func (r *Reliable) heldSet(st *rbSlot) []uint64 {
	i := int(st.held-1) * r.heldWordsPer
	return r.heldWords[i : i+r.heldWordsPer]
}

// heldBit returns the word of st's held set that holds voter p, and p's
// bit in it.
func (r *Reliable) heldBit(st *rbSlot, p types.ProcessID) (*uint64, uint64) {
	return &r.heldSet(st)[p/64], 1 << (p % 64)
}

// spam reports whether a vote of voter from for digest d would add d to
// the live, undelivered slot st while from is already counted in one of
// st's trackers of the vote's kind (echoes or readies). Handle drops such a
// vote: a correct process sends one ECHO and one READY per slot, so none of
// its votes is lost, and one Byzantine voter can add at most one digest per
// kind instead of one with every message.
func (st *rbSlot) spam(d Digest, from types.ProcessID, kind int) bool {
	if !st.live || st.lookup(d) != nil {
		return false
	}
	if st.value.tally.votes[kind].Contains(from) {
		return true
	}
	for _, v := range st.others {
		if v.tally.votes[kind].Contains(from) {
			return true
		}
	}
	return false
}

// echoOf returns the digest for which the live, undelivered slot st
// counted from's ECHO, if it did. A correct voter echoes once, so that
// digest is unique. A Byzantine one may be counted for several digests the
// slot already held (spam drops only a vote that adds one); then it is
// the slot's first if that is one of them, else the least, so the choice
// is the same in every run.
func (st *rbSlot) echoOf(from types.ProcessID) (d Digest, ok bool) {
	if !st.live {
		return d, false
	}
	if st.value.tally.votes[echoes].Contains(from) {
		return st.first, true
	}
	for od, v := range st.others {
		if v.tally.votes[echoes].Contains(from) && (!ok || bytes.Compare(od[:], d[:]) < 0) {
			d, ok = od, true
		}
	}
	return d, ok
}

// lookup returns what the live slot st knows about digest d, or nil.
func (st *rbSlot) lookup(d Digest) *rbValue {
	if st.first == d {
		return &st.value
	}
	return st.others[d]
}

// reset empties st for a later sequence number, handing its tallies,
// held READYs and fetch sets back, and reports whether it was live. A
// slot that only held READYs by reference is emptied but was not live.
func (r *Reliable) reset(st *rbSlot) bool {
	r.release(st)
	if !st.live {
		return false
	}
	r.unfetch(&st.value)
	for _, v := range st.others {
		r.unfetch(v)
	}
	*st = rbSlot{}
	return true
}

// due reports which of the two Bracha rules are due for v's digest in
// slot st of source src: READY after an ECHO quorum or a READY kernel, or
// at delivery if it is not sent yet; delivery after a READY quorum, in
// which the SEND counts as its source's READY (see "The SEND is its
// source's READY"). Neither is due once st has delivered (see "Slot
// state").
func (r *Reliable) due(src types.ProcessID, st *rbSlot, v *rbValue) (ready, deliver bool) {
	if st.delivered {
		return false, false
	}
	rd := &v.tally.votes[readies]
	deliver = rd.HasQuorum() || r.sendIsReady(src, st, v) && rd.HasQuorumWith(src)
	ready = !st.sentReady && (deliver || v.tally.votes[echoes].HasQuorum() || rd.HasKernel())
	return ready, deliver
}

// sendIsReady reports whether this process counts the SEND of slot st,
// from source src, as src's READY for v's digest toward a READY quorum: it
// handled that SEND, whose digest is st's first, src lies in U_self, and
// src is another process (a source counts its own READY in its tally).
func (r *Reliable) sendIsReady(src types.ProcessID, st *rbSlot, v *rbValue) bool {
	return st.sentEcho && v == &st.value && src != r.self && r.trust.Counts(r.self, src)
}

// advance applies the rules that are due for digest d, or — R1 — fetches
// the payload when this process does not hold it yet. trigger is the body
// of the full ECHO or READY that made the call, nil for a SEND, a PAYLOAD
// or a vote by reference, whose body does not hold d. A full vote's body
// holds (slot, d), so the READY or FETCH sent here carries it instead of a
// new body; without one, it carries the body of this process's own
// ECHO(d) if there is one, and only otherwise a new body.
func (r *Reliable) advance(env sim.Env, slot Slot, st *rbSlot, d Digest, v *rbValue, trigger *vote) {
	ready, deliver := r.due(slot.Src, st, v)
	if !ready && !deliver {
		return
	}
	if trigger == nil && (ready || v.payload == nil) {
		if trigger = v.tally.echo; trigger == nil {
			trigger = newVote(slot, d)
		}
	}
	if v.payload == nil {
		r.fetch(env, trigger, v)
		return
	}
	if ready {
		st.sentReady = true
		// A READY names d by reference to every receiver of this
		// process's ECHO(d), which is its whole audience once it echoed d.
		var refTo types.Set
		if st.sentEcho && st.first == d {
			refTo = r.everyone
		}
		v.tally.echo = nil
		r.cast(env, sim.Cast{Msg: readyMsg{trigger}, Ref: readyRefMsg{trigger}, RefTo: refTo})
	}
	if deliver {
		st.delivered = true
		r.release(st)
		r.deliver(env, slot, v.payload)
	}
}

// cast multicasts the vote act c to this process's audience, but c.Except:
// by reference to the members of c.RefTo other than itself, in full to the
// rest.
func (r *Reliable) cast(env sim.Env, c sim.Cast) {
	c.To = r.trust.Audience(r.self)
	sim.Multicast(env, c)
}

// fetch sends R2's request, the body of the vote that blocked on v, to
// every voter for v's digest not asked yet.
func (r *Reliable) fetch(env sim.Env, body *vote, v *rbValue) {
	f := r.borrowFetch(v)
	for i := range v.tally.votes {
		v.tally.votes[i].Set().ForEach(func(p types.ProcessID) bool {
			if !f[asked].Contains(p) {
				f[asked].Add(p)
				env.Send(p, fetchMsg{body})
			}
			return true
		})
	}
}

// Handle implements Broadcaster.
func (r *Reliable) Handle(env sim.Env, from types.ProcessID, msg sim.Message) bool {
	switch m := msg.(type) {
	case sendMsg:
		// Authenticated links: a SEND must come from its claimed source.
		if m.Slot.Src != from || m.Payload == nil {
			return true // drop forgery
		}
		if from == r.self {
			// Only the SEND Broadcast recorded reaches this process's own
			// slot: it counts the source's READY, if it lies in U_self,
			// and applies the rules. Any other is dropped.
			if st := r.find(m.Slot); st != nil && st.sentEcho {
				if st.value.tally != nil && r.trust.Counts(r.self, r.self) {
					st.value.tally.votes[readies].Add(r.self)
				}
				r.advance(env, m.Slot, st, st.first, &st.value, nil)
			}
			return true
		}
		st := r.open(m.Slot)
		if st == nil || st.sentEcho {
			return true // pruned, or not the first payload of the slot
		}
		st.sentEcho = true
		d := m.Payload.Digest()
		v := r.echoed(st, d)
		v.payload = m.Payload
		// The SEND is its source's ECHO, counted before this process casts
		// its own, and its READY only toward a READY quorum (due).
		counted := v.tally != nil && r.trust.Counts(r.self, from)
		if counted {
			v.tally.votes[echoes].Add(from)
		}
		b := newVote(m.Slot, d)
		// An ECHO goes to the audience but the source, and names d by
		// reference to the processes whose ECHO(d) this one counted; after
		// delivery it keeps no tally and sends in full.
		var refTo types.Set
		if v.tally != nil {
			refTo = v.tally.votes[echoes].Set()
			if !st.sentReady {
				v.tally.echo = b
			}
		}
		r.cast(env, sim.Cast{Msg: echoMsg{b}, Ref: echoRefMsg{b}, RefTo: refTo, Except: &b.Slot.Src})
		// A SEND overtaken by its own votes completes the slot here.
		r.advance(env, m.Slot, st, d, v, nil)
		if counted {
			r.unhold(env, from, m.Slot, st, d, nil)
		}
	case echoMsg:
		r.handleVote(env, from, m.vote, echoes)
	case readyMsg:
		r.handleVote(env, from, m.vote, readies)
	case echoRefMsg:
		r.handleEchoRef(env, from, m.body.Slot)
	case readyRefMsg:
		r.handleReadyRef(env, from, m.body.Slot)
	case fetchMsg:
		// Serve only what is held, once per requester; a request never
		// allocates state.
		st := r.find(m.Slot)
		if st == nil {
			return true
		}
		v := st.lookup(m.Digest)
		if v == nil || v.payload == nil {
			return true
		}
		f := r.borrowFetch(v)
		if f[served].Contains(from) {
			return true
		}
		f[served].Add(from)
		env.Send(from, payloadMsg{newSend(m.Slot, v.payload)})
	case payloadMsg:
		// Accept only a reply that was asked for, whose content hashes to
		// the digest asked for, while R1 still waits for it. Anything else
		// (forged, unsolicited, unknown, delivered or pruned slot) changes
		// no state.
		st := r.find(m.Slot)
		if st == nil || st.delivered || m.Payload == nil {
			return true
		}
		d := m.Payload.Digest()
		v := st.lookup(d)
		if v == nil || v.payload != nil || v.fetch == nil || !v.fetch[asked].Contains(from) {
			return true
		}
		if ready, deliver := r.due(m.Slot.Src, st, v); !ready && !deliver {
			return true
		}
		v.payload = m.Payload
		r.advance(env, m.Slot, st, d, v, nil)
	default:
		return false
	}
	return true
}

// handleVote handles an ECHO (kind echoes) or READY (kind readies) with
// body b. A vote from outside U_self, which no predicate of this process
// counts, and a vote for a delivered slot are dropped before they touch
// any state.
func (r *Reliable) handleVote(env sim.Env, from types.ProcessID, b *vote, kind int) {
	if !r.trust.Counts(r.self, from) {
		return
	}
	if st := r.open(b.Slot); st != nil {
		r.count(env, from, b.Slot, st, b.Digest, kind, b)
	}
}

// handleEchoRef handles an ECHO by reference for slot s: an ECHO for the
// digest this process echoed in s, which is s's first. It is dropped
// before it touches any state when its voter lies outside U_self or this
// process has not echoed in s, and so has no digest it could name.
func (r *Reliable) handleEchoRef(env sim.Env, from types.ProcessID, s Slot) {
	if !r.trust.Counts(r.self, from) {
		return
	}
	if st := r.find(s); st != nil && st.sentEcho {
		r.count(env, from, s, st, st.first, echoes, nil)
	}
}

// handleReadyRef handles a READY by reference for slot s: a READY for the
// digest its voter echoed to this process in s, which is the digest for
// which this process counted that ECHO. Until the ECHO is counted the
// READY is held, one bit per voter, and count counts it with the ECHO; in
// this process's own slot it counts at once. It is dropped before it
// touches any state when its voter lies outside U_self, s is pruned or
// delivered, or s is this process's own and Broadcast has not recorded it.
func (r *Reliable) handleReadyRef(env sim.Env, from types.ProcessID, s Slot) {
	if !r.trust.Counts(r.self, from) {
		return
	}
	if s.Src == r.self {
		// Its source knows the digest a correct voter echoed: the one
		// Broadcast recorded. A correct voter cannot vote before the SEND
		// exists, so one that comes before Broadcast is dropped.
		if st := r.find(s); st != nil && st.sentEcho {
			r.count(env, from, s, st, st.first, readies, nil)
		}
		return
	}
	st := r.open(s)
	if st == nil || st.delivered {
		return
	}
	if d, ok := st.echoOf(from); ok {
		r.count(env, from, s, st, d, readies, nil)
	} else {
		r.hold(st, from)
	}
}

// count adds from's vote of the given kind for digest d to slot st and
// applies the rules it makes due; body is the vote's body if it holds d,
// else nil. A vote for a delivered slot, or one that would add a digest
// for a voter already counted (spam), is dropped. An ECHO counts, after
// itself, its voter's held READY by reference, for the same digest.
func (r *Reliable) count(env sim.Env, from types.ProcessID, slot Slot, st *rbSlot, d Digest, kind int, body *vote) {
	if st.delivered || st.spam(d, from, kind) {
		return
	}
	v := r.value(st, d)
	v.tally.votes[kind].Add(from)
	r.advance(env, slot, st, d, v, body)
	if kind == echoes {
		r.unhold(env, from, slot, st, d, body)
	}
}

// unhold counts the READY by reference that st holds from voter from, if
// any, for d, the digest for which from's ECHO was just counted.
func (r *Reliable) unhold(env sim.Env, from types.ProcessID, slot Slot, st *rbSlot, d Digest, body *vote) {
	if st.held == 0 {
		return
	}
	if w, bit := r.heldBit(st, from); *w&bit != 0 {
		*w &^= bit
		r.count(env, from, slot, st, d, readies, body)
	}
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
}

var _ Broadcaster = (*Plain)(nil)

// NewPlain creates the best-effort broadcast component for one process.
func NewPlain(self types.ProcessID, deliver Deliver) *Plain {
	return &Plain{self: self, deliver: deliver, delivered: map[Slot]bool{}}
}

// Broadcast implements Broadcaster.
func (p *Plain) Broadcast(env sim.Env, seq uint64, payload Payload) {
	sim.Multicast(env, sim.Cast{Msg: sendMsg{newSend(Slot{Src: p.self, Seq: seq}, payload)}})
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
	if p.delivered[m.Slot] {
		return true
	}
	p.delivered[m.Slot] = true
	p.deliver(env, m.Slot, m.Payload)
	return true
}

// PruneBelow discards per-slot state — vote trackers, held payloads and
// fetch bookkeeping — for every slot with sequence number below seq, and
// drops late messages for such slots from then on, fetch requests included.
// DAG protocols use the round number as the sequence, so the consensus
// layer's GC watermark translates directly. The trade mirrors DAG pruning:
// a process so far behind that it still needs a pruned slot must be caught
// up by state transfer, not by re-running the broadcast (the slots below
// the watermark were already delivered and applied here). Without this the
// per-slot trackers and payloads are the dominant unbounded allocation of
// a long-lived run.
//
// The rows below seq are emptied in ascending seq order and kept for reuse,
// so once the window of live rows has reached its size a new slot costs no
// allocation.
func (r *Reliable) PruneBelow(seq uint64) {
	if seq <= r.pruned {
		return
	}
	// No row lies below the old watermark: open refuses those seqs.
	for s := r.pruned; s < seq && len(r.rows) > 0; s++ {
		row, ok := r.rows[s]
		if !ok {
			continue
		}
		delete(r.rows, s)
		for i := range row {
			if r.reset(&row[i]) {
				r.live--
			}
		}
		r.free = append(r.free, row)
	}
	r.pruned = seq
}

// SlotCount returns the number of slots with live state (a bounded-memory
// soak counter).
func (r *Reliable) SlotCount() int { return r.live }

// Held returns the number of READYs by reference this process has held
// because they arrived before their voter's ECHO. Over FIFO links, such as
// the TCP transport's, it stays 0.
func (r *Reliable) Held() int { return r.held }

// Waiting returns the number of READYs by reference held now: their
// voter's ECHO is not counted yet, and their slot has neither delivered
// nor been pruned. Where a link dropped that ECHO, the READY waits here
// until then and is never counted.
func (r *Reliable) Waiting() int {
	k := 0
	for _, w := range r.heldWords {
		k += bits.OnesCount64(w)
	}
	return k
}

// EquivocateSend lets tests and adversarial nodes inject a conflicting SEND
// for a slot directly to one recipient, bypassing the Broadcaster API. Only
// Byzantine behaviours use it. A Reliable drops one sent to the slot's
// source itself: a process's own slot is Broadcast's.
func EquivocateSend(env sim.Env, to types.ProcessID, slot Slot, payload Payload) {
	env.Send(to, sendMsg{newSend(slot, payload)})
}

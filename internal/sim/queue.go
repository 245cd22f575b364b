package sim

import "fmt"

// eventQueue is the scheduler's priority queue: a calendar queue (R.
// Brown, "Calendar queues", CACM 31(10), 1988) over integer virtual time.
//
// A ring of ringLen FIFO buckets covers the instants [base, base+ringLen);
// bucket at&ringMask holds exactly the pending events of instant at. An
// event at or past base+ringLen waits in the far heap, a (time, seq)
// min-heap, and moves into its bucket when base advances far enough, which
// happens before any push can reach that bucket. Since seq is globally
// monotone, appending keeps each bucket in seq order, and the far heap
// hands an instant its events in seq order before any direct push to it:
// the pop sequence is the (time, seq) order. queue_test.go pins it against
// the 4-ary heap the simulator once used.
//
// Buckets are chains of segments from the queue's free list, and an
// emptied segment goes back on it, so a run allocates about its peak
// pending depth divided by segLen and then nothing more.
type eventQueue struct {
	ring [ringLen]bucket
	base VirtualTime // the current instant: nothing earlier may be pushed
	far  []event     // binary min-heap of events at or past base+ringLen
	free *segment
	size int
}

const (
	ringLen  = 64
	ringMask = ringLen - 1
	segLen   = 256
)

// segment is one link of a bucket's FIFO chain.
type segment struct {
	evs  [segLen]event
	next *segment
}

// bucket is one instant's FIFO: events head.evs[lo:] through tail.evs[:hi].
type bucket struct {
	head, tail *segment
	lo, hi     int
}

func (q *eventQueue) Len() int { return q.size }

// push enqueues e. An event earlier than the current instant would be
// filed one lap late and silently reorder the run, so it panics.
func (q *eventQueue) push(e event) {
	if e.at < q.base {
		panic(fmt.Sprintf("sim: event at %d pushed behind the current instant %d", e.at, q.base))
	}
	q.size++
	if e.at-q.base >= ringLen {
		q.pushFar(e)
		return
	}
	q.append(&q.ring[e.at&ringMask], e)
}

// pop removes and returns the least pending event, advancing the current
// instant to its time. Only called when the queue is non-empty.
func (q *eventQueue) pop() event {
	if q.size == len(q.far) {
		q.base = q.far[0].at
	} else {
		for q.ring[q.base&ringMask].head == nil {
			q.base++
		}
	}
	// Move the far events the advanced window now covers into their
	// buckets. Those buckets are empty: their instants lie past every
	// event filed in the ring.
	for len(q.far) > 0 && q.far[0].at-q.base < ringLen {
		e := q.popFar()
		q.append(&q.ring[e.at&ringMask], e)
	}
	q.size--
	b := &q.ring[q.base&ringMask]
	s := b.head
	e := s.evs[b.lo]
	b.lo++
	switch {
	case s == b.tail && b.lo == b.hi:
		q.release(s, b.hi)
		*b = bucket{}
	case b.lo == segLen:
		b.head, b.lo = s.next, 0
		q.release(s, segLen)
	}
	return e
}

// append adds e at the back of bucket b.
func (q *eventQueue) append(b *bucket, e event) {
	if b.tail == nil || b.hi == segLen {
		s := q.free
		if s == nil {
			s = new(segment)
		}
		q.free, s.next = s.next, nil
		if b.tail == nil {
			b.head, b.lo = s, 0
		} else {
			b.tail.next = s
		}
		b.tail, b.hi = s, 0
	}
	b.tail.evs[b.hi] = e
	b.hi++
}

// release clears the n filled slots of a consumed segment, dropping their
// message references, and puts it on the free list.
func (q *eventQueue) release(s *segment, n int) {
	clear(s.evs[:n])
	s.next = q.free
	q.free = s
}

// pushFar adds e to the far heap (binary sift-up).
func (q *eventQueue) pushFar(e event) {
	h := append(q.far, e)
	i := len(h) - 1
	for p := (i - 1) / 2; i > 0 && eventLess(&e, &h[p]); p = (i - 1) / 2 {
		h[i], i = h[p], p
	}
	h[i] = e
	q.far = h
}

// popFar removes and returns the far heap's least event.
func (q *eventQueue) popFar() event {
	last := len(q.far) - 1
	e, moved := q.far[0], q.far[last]
	q.far[last] = event{}
	h := q.far[:last]
	i := 0
	for c := 1; c < last; c = 2*i + 1 {
		if c+1 < last && eventLess(&h[c+1], &h[c]) {
			c++
		}
		if !eventLess(&h[c], &moved) {
			break
		}
		h[i], i = h[c], c
	}
	if last > 0 {
		h[i] = moved
	}
	q.far = h
	return e
}

package wire

import "sync/atomic"

// CarveChunk is the number of values in one Carver chunk.
const CarveChunk = 64

// Carver hands out message bodies cut from process-wide chunks of
// CarveChunk values, so a pointer-shaped message — a struct holding only a
// pointer to its body, which an interface holds without boxing — costs one
// allocation per CarveChunk messages instead of one each. The zero value
// is ready to use, and a Carver is safe for concurrent use: the codec cuts
// bodies on every connection's reader, and the simulator runs of a sweep
// cut them on separate goroutines.
//
// Each index of a chunk is handed out once and never reused, and a body is
// never written after Cut returns it. A chunk is not recycled: a message
// may sit in a lagging receiver's queue or a TCP outbox long after its
// sender is done with it, and several receivers may read one body at once.
// The garbage collector frees a chunk with the last message that points
// into it, so a chunk pins whatever its bodies reference until then.
//
// So carve only bodies that reference no payload. One long-lived body
// keeps its whole chunk alive, and with it everything the other bodies of
// the chunk point to: a carver for created DAG vertices, each holding a
// block, raised the peak RSS of a saturated TCP cluster, where an
// edge-list slab of the same vertices left it flat. The SEND and PAYLOAD
// bodies of package broadcast are the exception: a message lives only
// until its receivers have handled it, and the block it carries lives on
// in their broadcast slots longer than that anyway.
type Carver[T any] struct {
	cur atomic.Pointer[carverChunk[T]]
}

type carverChunk[T any] struct {
	next  atomic.Int64
	items [CarveChunk]T
}

// Cut returns a pointer to a body holding v. Concurrent callers each take
// their own index. A used-up chunk is left to the messages that point into
// it and replaced; of two callers that both find it used up, one stores
// its new chunk and the other's is dropped unused.
func (c *Carver[T]) Cut(v T) *T {
	for {
		ch := c.cur.Load()
		if ch != nil {
			if i := ch.next.Add(1) - 1; i < CarveChunk {
				ch.items[i] = v
				return &ch.items[i]
			}
		}
		c.cur.CompareAndSwap(ch, new(carverChunk[T]))
	}
}

package dag

import (
	"testing"

	"repro/internal/types"
)

// countingRows returns a window of DAG rounds over n sources and a counter
// of its fresh calls.
func countingRows(n int) (*Rows[row], *int) {
	calls := 0
	w := NewRows(n, func(n, k int) []row {
		calls++
		return newRows(n, k)
	}, (*row).reset)
	return &w, &calls
}

// TestRowsFreshPerChunk: a window growing into rounds it has no kept row
// for makes them a chunk at a time, so fresh runs once per RowChunk rounds
// and the chunk's unused rows wait on the free list.
func TestRowsFreshPerChunk(t *testing.T) {
	w, calls := countingRows(5)
	w.Grow(0)
	if *calls != 1 || len(w.free) != RowChunk-1 {
		t.Fatalf("first Grow: %d fresh calls, %d free rows, want 1 and %d", *calls, len(w.free), RowChunk-1)
	}
	const rounds = 3*RowChunk + 1
	for r := 1; r < rounds; r++ {
		w.Grow(r)
	}
	if want := (rounds + RowChunk - 1) / RowChunk; *calls != want {
		t.Fatalf("growing to %d rounds called fresh %d times, want %d", rounds, *calls, want)
	}
	if got := w.End() - w.Base(); got != rounds {
		t.Fatalf("window holds %d rounds, want %d", got, rounds)
	}
}

// TestRowChunkRowsDisjoint: the rows of one chunk share backing arrays but
// no slot or source bit. Each row in turn is filled completely — every
// vertex slot and every srcs bit — and every other row of its chunk must
// still be empty and n slots long. An off-by-one cut that lets rows
// overlap fails here.
func TestRowChunkRowsDisjoint(t *testing.T) {
	for _, n := range []int{1, 5, 64, 65} {
		v := &Vertex{}
		for i := range RowChunk {
			rows := newRows(n, RowChunk)
			if len(rows) != RowChunk {
				t.Fatalf("n=%d: newRows made %d rows, want %d", n, len(rows), RowChunk)
			}
			for s := range rows[i].verts {
				rows[i].verts[s] = v
			}
			for s := range n {
				rows[i].srcs.Add(types.ProcessID(s))
			}
			for j, rw := range rows {
				if len(rw.verts) != n || cap(rw.verts) != n || rw.srcs.UniverseSize() != n {
					t.Fatalf("n=%d: row %d has %d slots (cap %d) over %d sources, want %d",
						n, j, len(rw.verts), cap(rw.verts), rw.srcs.UniverseSize(), n)
				}
				if j == i {
					continue
				}
				if !rw.srcs.IsEmpty() {
					t.Fatalf("n=%d: filling row %d set sources %v of row %d", n, i, rw.srcs, j)
				}
				for s, got := range rw.verts {
					if got != nil {
						t.Fatalf("n=%d: filling row %d wrote slot %d of row %d", n, i, s, j)
					}
				}
			}
		}
	}
}

// TestRowsSlideAllocatesNothing: once a window has rows kept, dropping its
// lowest round and growing one above it reuses the dropped row.
func TestRowsSlideAllocatesNothing(t *testing.T) {
	w, calls := countingRows(30)
	for r := range 4 {
		w.Grow(r)
	}
	slide := func() {
		w.DropBelow(w.Base() + 1)
		w.Grow(w.End())
	}
	slide()
	if allocs := testing.AllocsPerRun(100, slide); allocs != 0 {
		t.Fatalf("DropBelow then Grow allocated %.2f objects, want 0", allocs)
	}
	if *calls != 1 || w.End()-w.Base() != 4 {
		t.Fatalf("after sliding: %d fresh calls, %d rounds, want 1 and 4", *calls, w.End()-w.Base())
	}
}

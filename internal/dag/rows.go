package dag

import "fmt"

// RowChunk is the number of rows one fresh call makes: a window that has
// no kept row to grow into cuts RowChunk of them from shared backing
// arrays, uses one and keeps the rest.
const RowChunk = 8

// Rows is a window of per-round rows over rounds Base() to End()−1: the
// storage of the DAG's rounds, and of the per-round state a node keeps
// beside them and prunes at the same watermark. DropBelow empties the rows
// it drops and keeps them, and Grow takes kept rows before it makes new
// ones, so a window that has reached its working size allocates nothing
// more. Before that it allocates once per RowChunk rows for each of a
// row's components, not once per row: fresh cuts a chunk of rows from
// shared arrays, and Grow keeps the rows it does not need yet. The zero
// value is not usable; call NewRows.
type Rows[R any] struct {
	base  int // round of rows[0]
	rows  []R
	free  []R // dropped rows, emptied, and a chunk's unused rows, for Grow
	n     int
	fresh func(n, k int) []R
	empty func(*R)
}

// NewRows returns an empty window at round 0 whose rows fresh(n, k) makes
// k at a time and empty clears for reuse.
func NewRows[R any](n int, fresh func(n, k int) []R, empty func(*R)) Rows[R] {
	return Rows[R]{n: n, fresh: fresh, empty: empty}
}

// Base returns the lowest round of the window.
func (w *Rows[R]) Base() int { return w.base }

// End returns one past the highest round of the window.
func (w *Rows[R]) End() int { return w.base + len(w.rows) }

// At returns round r's row, or nil when r lies outside the window.
func (w *Rows[R]) At(r int) *R {
	i := r - w.base
	if i < 0 || i >= len(w.rows) {
		return nil
	}
	return &w.rows[i]
}

// Grow extends the window through round r and returns round r's row. r
// must not lie below Base: a dropped round is never written again.
func (w *Rows[R]) Grow(r int) *R {
	if r < w.base {
		panic(fmt.Sprintf("dag: round %d below the window base %d", r, w.base))
	}
	for len(w.rows) <= r-w.base {
		if len(w.free) == 0 {
			w.free = append(w.free, w.fresh(w.n, RowChunk)...)
		}
		k := len(w.free)
		w.rows = append(w.rows, w.free[k-1])
		w.free = w.free[:k-1]
	}
	return &w.rows[r-w.base]
}

// DropBelow empties the rows of the rounds below r, keeps them for Grow,
// and moves Base up to r. The live rows move to the front of the storage,
// so it stays the size of the window however many rounds pass.
func (w *Rows[R]) DropBelow(r int) {
	if r <= w.base {
		return
	}
	k := min(r-w.base, len(w.rows))
	for i := range w.rows[:k] {
		w.empty(&w.rows[i])
		w.free = append(w.free, w.rows[i])
	}
	w.rows = w.rows[:copy(w.rows, w.rows[k:])]
	w.base = r
}

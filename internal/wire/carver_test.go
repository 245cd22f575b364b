package wire

import (
	"sync"
	"testing"
)

// TestCarverHandsOutEachBodyOnce: four goroutines cut bodies at once, each
// through more than three chunks' worth, and keep every pointer. Afterwards
// every body still holds the value it was cut with, and no two pointers
// are equal: no index was handed out twice and no body was written after
// it was handed out.
func TestCarverHandsOutEachBodyOnce(t *testing.T) {
	const cutters, perCutter = 4, 3*CarveChunk + 7
	type body struct{ cutter, i int }
	var c Carver[body]
	kept := make([][]*body, cutters)
	var wg sync.WaitGroup
	for k := range kept {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCutter; i++ {
				kept[k] = append(kept[k], c.Cut(body{k, i}))
			}
		}()
	}
	wg.Wait()
	seen := map[*body]bool{}
	for k := range kept {
		for i, p := range kept[k] {
			if *p != (body{k, i}) {
				t.Fatalf("cutter %d body %d now reads %+v", k, i, *p)
			}
			if seen[p] {
				t.Fatalf("cutter %d body %d: pointer handed out twice", k, i)
			}
			seen[p] = true
		}
	}
}

// TestCarverAllocs: a cut costs one allocation per chunk.
func TestCarverAllocs(t *testing.T) {
	var c Carver[[4]uint64]
	const runs = 10 * CarveChunk
	if a := testing.AllocsPerRun(runs, func() { c.Cut([4]uint64{1}) }); a != 0 {
		t.Errorf("Cut allocates %v times per call, want one allocation per %d calls", a, CarveChunk)
	}
}

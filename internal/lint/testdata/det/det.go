// Package det is the asymdeterminism analyzer's fixture: each `want`
// comment marks an expected diagnostic; lines without one must stay
// clean. The package is loaded only by the fixture test (go list's
// ... patterns never descend into testdata).
package det

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() int64 {
	return time.Now().UnixNano() // want `call to time\.Now`
}

func sleepy() {
	time.Sleep(time.Millisecond) // want `call to time\.Sleep`
}

func globalRand() int {
	return rand.Intn(6) // want `process-global random source`
}

func seededRand(r *rand.Rand) int {
	return r.Intn(6) // methods on an explicitly seeded *rand.Rand are fine
}

func newSeeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // constructors are fine
}

func escapingOrder(m map[int]string) string {
	out := ""
	for _, v := range m { // want `iteration order is nondeterministic`
		out += v
	}
	return out
}

func sortedCollect(m map[int]string) []int {
	var keys []int
	for k := range m { // collected then sorted: order cannot escape
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func collectNoSort(m map[int]string) []int {
	var keys []int
	for k := range m { // want `iteration order is nondeterministic`
		keys = append(keys, k)
	}
	return keys
}

func pruneAll(m map[int]bool) {
	for k := range m { // pure prune: order cannot escape
		if m[k] {
			delete(m, k)
		}
	}
}

func countEntries(m map[int]int) int {
	n := 0
	for range m { // commutative counter: order cannot escape
		n++
	}
	return n
}

func sumValues(m map[int]int) int {
	total := 0
	for _, v := range m { // commutative integer sum: order cannot escape
		total += v
	}
	return total
}

func copySlots(src, dst map[int]string) {
	for k, v := range src { // disjoint per-key writes: order cannot escape
		dst[k] = v
	}
}

func floatSum(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m { // want `iteration order is nondeterministic`
		total += v
	}
	return total
}

func annotated(m map[int]string) string {
	out := ""
	//lint:ordered fixture: the concatenation feeds nothing order-sensitive
	for _, v := range m {
		out += v
	}
	return out
}

func unusedAnnotation() int {
	//lint:ordered nothing here ranges over a map // want `unused //lint:ordered directive`
	return 1
}

//lint:orderd misspelled directive name // want `^unknown lint directive //lint:orderd \(known: ordered, unwired, sizer-fallback, confined, retained\)$`
func typoDirective() {}

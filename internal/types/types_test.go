package types

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(70) // spans two words
	if !s.IsEmpty() {
		t.Fatal("new set should be empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(69)
	if got := s.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	for _, p := range []ProcessID{0, 63, 64, 69} {
		if !s.Contains(p) {
			t.Errorf("Contains(%d) = false, want true", p)
		}
	}
	if s.Contains(1) || s.Contains(65) {
		t.Error("contains non-members")
	}
	s.Remove(63)
	if s.Contains(63) {
		t.Error("Remove failed")
	}
	if got := s.Count(); got != 3 {
		t.Fatalf("Count after remove = %d, want 3", got)
	}
}

func TestSetContainsOutOfRange(t *testing.T) {
	s := NewSet(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(100) {
		t.Error("out-of-range Contains should be false")
	}
}

func TestSetAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range should panic")
		}
	}()
	s := NewSet(5)
	s.Add(5)
}

func TestUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Union with mismatched universes should panic")
		}
	}()
	a := NewSet(5)
	b := NewSet(6)
	a.Union(b)
}

func TestFullSetAndComplement(t *testing.T) {
	for _, n := range []int{0, 1, 30, 63, 64, 65, 130} {
		f := FullSet(n)
		if got := f.Count(); got != n {
			t.Errorf("FullSet(%d).Count = %d", n, got)
		}
		if !f.Complement().IsEmpty() {
			t.Errorf("FullSet(%d).Complement should be empty", n)
		}
	}
}

func TestSetOps(t *testing.T) {
	a := NewSetOf(10, 1, 2, 3)
	b := NewSetOf(10, 3, 4, 5)

	if got := a.Union(b); !got.Equal(NewSetOf(10, 1, 2, 3, 4, 5)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewSetOf(10, 3)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Subtract(b); !got.Equal(NewSetOf(10, 1, 2)) {
		t.Errorf("Subtract = %v", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false, want true")
	}
	if a.Intersects(NewSetOf(10, 7, 8)) {
		t.Error("Intersects disjoint = true")
	}
	if !NewSetOf(10, 1, 2).IsSubsetOf(a) {
		t.Error("IsSubsetOf = false, want true")
	}
	if a.IsSubsetOf(b) {
		t.Error("IsSubsetOf = true, want false")
	}
}

func TestUnionInPlace(t *testing.T) {
	a := NewSetOf(10, 1)
	a.UnionInPlace(NewSetOf(10, 2, 3))
	if !a.Equal(NewSetOf(10, 1, 2, 3)) {
		t.Errorf("UnionInPlace = %v", a)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewSetOf(10, 1, 2)
	c := a.Clone()
	c.Add(5)
	if a.Contains(5) {
		t.Error("Clone is not independent")
	}
}

// TestNewSetsIndependent: sets cut from one backing array do not see each
// other's members, across word boundaries and through Clear.
func TestNewSetsIndependent(t *testing.T) {
	sets := NewSets(130, 3)
	sets[1].Add(0)
	sets[1].Add(129)
	sets[2].Add(64)
	if !sets[0].IsEmpty() || !sets[1].Equal(NewSetOf(130, 0, 129)) || !sets[2].Equal(NewSetOf(130, 64)) {
		t.Fatalf("shared backing leaked: %v %v %v", sets[0], sets[1], sets[2])
	}
	sets[1].Clear()
	if !sets[1].IsEmpty() || sets[1].UniverseSize() != 130 || !sets[2].Equal(NewSetOf(130, 64)) {
		t.Fatalf("Clear: %v (universe %d), neighbour %v", sets[1], sets[1].UniverseSize(), sets[2])
	}
}

func TestMembersAndForEach(t *testing.T) {
	s := NewSetOf(130, 0, 64, 129, 5)
	want := []ProcessID{0, 5, 64, 129}
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("Members = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
	var collected []ProcessID
	s.ForEach(func(p ProcessID) bool {
		collected = append(collected, p)
		return true
	})
	if len(collected) != 4 {
		t.Fatalf("ForEach visited %d", len(collected))
	}
	// Early stop.
	count := 0
	s.ForEach(func(ProcessID) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("ForEach early stop visited %d", count)
	}
}

func TestStringNotation(t *testing.T) {
	s := NewSetOf(30, 0, 1, 15)
	if got := s.String(); got != "{1, 2, 16}" {
		t.Errorf("String = %q", got)
	}
	if got := ProcessID(4).String(); got != "p5" {
		t.Errorf("ProcessID.String = %q", got)
	}
}

func TestKeyDistinguishesSets(t *testing.T) {
	a := NewSetOf(70, 1, 64)
	b := NewSetOf(70, 1, 65)
	if a.Key() == b.Key() {
		t.Error("Key collision for distinct sets")
	}
	if a.Key() != a.Clone().Key() {
		t.Error("Key not stable across clones")
	}
}

// randomSet builds a reproducible random set for property tests.
func randomSet(r *rand.Rand, n int) Set {
	s := NewSet(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s.Add(ProcessID(i))
		}
	}
	return s
}

func TestSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	n := 100

	// De Morgan: complement(a ∪ b) == complement(a) ∩ complement(b).
	deMorgan := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, n), randomSet(r, n)
		return a.Union(b).Complement().Equal(a.Complement().Intersect(b.Complement()))
	}
	if err := quick.Check(deMorgan, cfg); err != nil {
		t.Errorf("De Morgan: %v", err)
	}

	// a \ b == a ∩ complement(b).
	subtractDef := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, n), randomSet(r, n)
		return a.Subtract(b).Equal(a.Intersect(b.Complement()))
	}
	if err := quick.Check(subtractDef, cfg); err != nil {
		t.Errorf("subtract definition: %v", err)
	}

	// |a ∪ b| + |a ∩ b| == |a| + |b| (inclusion-exclusion).
	inclExcl := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, n), randomSet(r, n)
		return a.Union(b).Count()+a.Intersect(b).Count() == a.Count()+b.Count()
	}
	if err := quick.Check(inclExcl, cfg); err != nil {
		t.Errorf("inclusion-exclusion: %v", err)
	}

	// Subset: a ∩ b ⊆ a ⊆ a ∪ b.
	subsetChain := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, n), randomSet(r, n)
		return a.Intersect(b).IsSubsetOf(a) && a.IsSubsetOf(a.Union(b))
	}
	if err := quick.Check(subsetChain, cfg); err != nil {
		t.Errorf("subset chain: %v", err)
	}

	// Members round-trip.
	roundTrip := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r, n)
		return NewSetOf(n, a.Members()...).Equal(a)
	}
	if err := quick.Check(roundTrip, cfg); err != nil {
		t.Errorf("members round trip: %v", err)
	}
}

package gather

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// naivePairs is the reference implementation of the pair-set semantics:
// a plain map, every clone a full copy. The differential suite below
// drives it in lockstep with the bitset Pairs.
type naivePairs struct {
	n int
	m map[types.ProcessID]string
}

func newNaivePairs(n int) *naivePairs {
	return &naivePairs{n: n, m: map[types.ProcessID]string{}}
}

func (p *naivePairs) set(k types.ProcessID, v string) bool {
	if old, ok := p.m[k]; ok {
		return old == v
	}
	p.m[k] = v
	return true
}

func (p *naivePairs) merge(other *naivePairs) bool {
	ok := true
	for k := types.ProcessID(0); int(k) < p.n; k++ {
		v, present := other.m[k]
		if !present {
			continue
		}
		if old, had := p.m[k]; had {
			if old != v {
				ok = false
			}
		} else {
			p.m[k] = v
		}
	}
	return ok
}

func (p *naivePairs) containsAll(other *naivePairs) bool {
	for k, v := range other.m {
		if got, ok := p.m[k]; !ok || got != v {
			return false
		}
	}
	return true
}

func (p *naivePairs) clone() *naivePairs {
	c := newNaivePairs(p.n)
	for k, v := range p.m {
		c.m[k] = v
	}
	return c
}

// requirePairsEqual asserts that the Pairs instance and the naive reference
// expose identical observable state through every read accessor.
func requirePairsEqual(t *testing.T, label string, got Pairs, ref *naivePairs) {
	t.Helper()
	if got.Len() != len(ref.m) {
		t.Fatalf("%s: Len %d, reference has %d", label, got.Len(), len(ref.m))
	}
	for k := types.ProcessID(0); int(k) < ref.n; k++ {
		wantV, want := ref.m[k]
		gotV, present := got.Get(k)
		if present != want || gotV != wantV {
			t.Fatalf("%s: Get(%d) = (%q,%v), reference (%q,%v)", label, k, gotV, present, wantV, want)
		}
		if got.Contains(k) != want {
			t.Fatalf("%s: Contains(%d) = %v, reference %v", label, k, got.Contains(k), want)
		}
	}
	m := got.Map()
	if len(m) != len(ref.m) {
		t.Fatalf("%s: Map has %d entries, reference %d", label, len(m), len(ref.m))
	}
	for k, v := range ref.m {
		if m[k] != v {
			t.Fatalf("%s: Map[%d] = %q, reference %q", label, k, m[k], v)
		}
	}
}

// TestPairsDifferential drives random op sequences — Set, Merge, Clone,
// Get, Contains, ContainsAll — against both Pairs and the map reference,
// asserting identical observable state across every live instance after
// every op. A Clone that shared storage with its source would show up as
// a divergence.
func TestPairsDifferential(t *testing.T) {
	const (
		seeds     = 200
		opsPerRun = 120
		maxInsts  = 8
	)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80) // spans single- and multi-word bitsets
		vals := []string{"a", "b", "c"}

		sets := []Pairs{NewPairs(n)}
		refs := []*naivePairs{newNaivePairs(n)}

		place := func(p Pairs, ref *naivePairs) {
			if len(sets) < maxInsts {
				sets = append(sets, p)
				refs = append(refs, ref)
			} else {
				at := rng.Intn(len(sets))
				sets[at] = p
				refs[at] = ref
			}
		}

		for op := 0; op < opsPerRun; op++ {
			i := rng.Intn(len(sets))
			label := fmt.Sprintf("seed %d op %d inst %d", seed, op, i)
			switch rng.Intn(8) {
			case 0, 1, 2, 3: // Set
				k := types.ProcessID(rng.Intn(n))
				v := vals[rng.Intn(len(vals))]
				if got, want := sets[i].Set(k, v), refs[i].set(k, v); got != want {
					t.Fatalf("%s: Set(%d,%q) = %v, reference %v", label, k, v, got, want)
				}
			case 4, 5: // Merge
				j := rng.Intn(len(sets))
				if got, want := sets[i].Merge(sets[j]), refs[i].merge(refs[j]); got != want {
					t.Fatalf("%s: Merge(inst %d) = %v, reference %v", label, j, got, want)
				}
			case 6: // Clone
				place(sets[i].Clone(), refs[i].clone())
			case 7: // ContainsAll
				j := rng.Intn(len(sets))
				if got, want := sets[i].ContainsAll(sets[j]), refs[i].containsAll(refs[j]); got != want {
					t.Fatalf("%s: ContainsAll(inst %d) = %v, reference %v", label, j, got, want)
				}
			}
			for x := range sets {
				requirePairsEqual(t, fmt.Sprintf("%s check inst %d", label, x), sets[x], refs[x])
			}
		}
	}
}

// TestPairsSnapshotImmuneToLaterMutations is the broadcast-path
// regression: the set a node sends at a quorum trigger, a Clone of its
// live set, must not change when the live set keeps growing afterwards —
// in either direction.
func TestPairsSnapshotImmuneToLaterMutations(t *testing.T) {
	p := NewPairs(70)
	p.Set(0, "a")
	p.Set(65, "b")

	snap := p.Clone()
	p.Set(2, "c")
	p.Merge(PairsOf(70, map[types.ProcessID]string{3: "d", 64: "e"}))

	if snap.Len() != 2 {
		t.Fatalf("snapshot grew to %d pairs after sender mutations", snap.Len())
	}
	for _, k := range []types.ProcessID{2, 3, 64} {
		if snap.Contains(k) {
			t.Fatalf("snapshot absorbed pair %d added after the trigger", k)
		}
	}
	if v, _ := snap.Get(0); v != "a" {
		t.Fatalf("snapshot value for 0 changed to %q", v)
	}

	// The reverse direction: mutating a snapshot must not leak into the
	// live set.
	snap2 := p.Clone()
	snap2.Set(10, "z")
	if p.Contains(10) {
		t.Fatal("mutating a snapshot leaked into its parent")
	}
	if !snap2.Contains(10) {
		t.Fatal("snapshot mutation lost")
	}
}

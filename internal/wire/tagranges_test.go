package wire

import (
	"testing"
	"time"
)

// TestTagRangesWellFormed checks the central tag-range table Register
// enforces: every range is ordered, stays below the test-reserved band,
// and is disjoint from every other package's range.
func TestTagRangesWellFormed(t *testing.T) {
	type claim struct {
		pkg string
		r   TagRange
	}
	var claims []claim
	for pkg, r := range TagRanges {
		claims = append(claims, claim{pkg, r})
	}
	for _, c := range claims {
		if c.r.Lo > c.r.Hi {
			t.Errorf("%s: inverted range [%d, %d]", c.pkg, c.r.Lo, c.r.Hi)
		}
		if c.r.Hi >= TestTagFloor {
			t.Errorf("%s: range [%d, %d] reaches the test-reserved band (>= %d)",
				c.pkg, c.r.Lo, c.r.Hi, TestTagFloor)
		}
	}
	for i, a := range claims {
		for _, b := range claims[i+1:] {
			if a.r.Lo <= b.r.Hi && b.r.Lo <= a.r.Hi {
				t.Errorf("ranges overlap: %s [%d, %d] and %s [%d, %d]",
					a.pkg, a.r.Lo, a.r.Hi, b.pkg, b.r.Lo, b.r.Hi)
			}
		}
	}
}

type inRangeMsg struct{}

type outOfRangeMsg struct{}

type otherRangeMsg struct{}

// TestRegisterEnforcesTagRanges pins Register's range check: a tag in the
// range of the package declaring the type (through a pointer too) is
// accepted, a tag outside it panics, and so does any tag below the
// test-reserved band for a package with no range.
func TestRegisterEnforcesTagRanges(t *testing.T) {
	const pkg = "repro/internal/wire"
	TagRanges[pkg] = TagRange{Lo: 900, Hi: 909}
	defer delete(TagRanges, pkg)
	codec := Codec{
		Append: func(dst []byte, _ any) ([]byte, error) { return dst, nil },
		Decode: func(b []byte) (any, []byte, error) { return inRangeMsg{}, b, nil },
	}
	Register(900, inRangeMsg{}, codec)
	Register(909, &inRangeMsg{}, codec)
	mustPanic(t, "tag outside the package's range", func() { Register(910, outOfRangeMsg{}, codec) })
	mustPanic(t, "tag in another package's range", func() { Register(45, otherRangeMsg{}, codec) })
	mustPanic(t, "package with no range", func() { Register(905, time.Duration(0), codec) })
}

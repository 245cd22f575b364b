package core

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

// TestCommitsAtQuorumBoundary pins the commit rule at its boundary: a
// wave commits when the round-4 vertices with strong paths to the leader
// include a quorum of some process. Each system gets a reach set one
// member short of a quorum, a quorum exactly, and a quorum plus one
// member: 2, 3 and 4 of threshold(4,1); 4, 5 and 6 of threshold(7,2); and
// on Fig. 1, where each process has a single quorum of 6, process 1's
// quorum less one member, the quorum, and the quorum plus one outsider.
func TestCommitsAtQuorumBoundary(t *testing.T) {
	fig1 := quorum.Counterexample()
	quorum1 := fig1.Quorums(0)[0]
	q := quorum1.Members()
	outsider := quorum1.Complement().Members()[0]
	set := func(n int, members ...types.ProcessID) types.Set { return types.NewSetOf(n, members...) }
	cases := []struct {
		name     string
		trust    quorum.Assumption
		reach    types.Set
		expected bool
	}{
		{name: "threshold(4,1): one below", trust: quorum.NewThreshold(4, 1), reach: set(4, 1, 3), expected: false},
		{name: "threshold(4,1): at", trust: quorum.NewThreshold(4, 1), reach: set(4, 0, 1, 3), expected: true},
		{name: "threshold(4,1): one above", trust: quorum.NewThreshold(4, 1), reach: set(4, 0, 1, 2, 3), expected: true},
		{name: "threshold(7,2): one below", trust: quorum.NewThreshold(7, 2), reach: set(7, 0, 2, 4, 6), expected: false},
		{name: "threshold(7,2): at", trust: quorum.NewThreshold(7, 2), reach: set(7, 0, 2, 3, 4, 6), expected: true},
		{name: "threshold(7,2): one above", trust: quorum.NewThreshold(7, 2), reach: set(7, 0, 1, 2, 3, 4, 6), expected: true},
		{name: "Fig. 1: one below", trust: fig1, reach: set(30, q[:len(q)-1]...), expected: false},
		{name: "Fig. 1: at", trust: fig1, reach: set(30, q...), expected: true},
		{name: "Fig. 1: one above", trust: fig1, reach: set(30, append(q, outsider)...), expected: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := (rules{NewNode(Config{Trust: c.trust})}).Commits(c.reach); got != c.expected {
				t.Errorf("Commits(%v) = %v, want %v", c.reach, got, c.expected)
			}
		})
	}
}

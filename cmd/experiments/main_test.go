package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/types"
)

// TestSubcommands runs every subcommand in process on a tiny input, and
// each bad input the flags once let through: those must exit 2 before any
// run starts, so with nothing on stdout. Each case runs under a deadline,
// because some of those inputs once hung the tool.
func TestSubcommands(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // substring of stdout; "" for bad input
	}{
		{[]string{"rider", "-n", "4", "-f", "1", "-seeds", "1", "-waves", "1"}, 0, "kind,system,n,seed"},
		{[]string{"gather", "-system", "threshold", "-n", "4", "-f", "1"}, 0, "delivered=4/4"},
		{[]string{"quorum"}, 0, "system: counterexample"},
		{[]string{"quorum", "-search", "3"}, 0, "built: 3/3"},
		{[]string{"flood", "-n", "2", "-rounds", "1"}, 0, "delivered: 4 msgs"},
		{[]string{"-run", "fig1"}, 0, "=== fig1"},
		{[]string{"rider", "-kind", "bogus"}, 2, ""},
		{[]string{"rider", "-n", "3", "-f", "1"}, 2, ""},
		{[]string{"rider", "-kind", "symmetric", "-system", "counterexample"}, 2, ""},
		{[]string{"gather", "-proto", "bogus", "-schedule", "bogus"}, 2, ""},
		{[]string{"gather", "-schedule", "bogus"}, 2, ""},
		{[]string{"-run", "bogus"}, 2, ""},
		{[]string{"ridr"}, 2, ""},
		{[]string{"quorum", "-system", "random", "-n", "1"}, 2, ""},
		{[]string{"rider", "-system", "random", "-n", "1"}, 2, ""},
		{[]string{"rider", "-seeds", "-1"}, 2, ""},
		{[]string{"rider", "-waves", "0"}, 2, ""},
		{[]string{"gather", "-seeds", "-2"}, 2, ""},
		{[]string{"quorum", "-search", "-3"}, 2, ""},
		{[]string{"flood", "-size", "-5"}, 2, ""},
		{[]string{"-workers", "2"}, 2, ""},
		{[]string{"-delivery-workers", "2"}, 2, ""},
		{[]string{"rider", "-workers", "2"}, 2, ""},
		{[]string{"rider", "-delivery-workers", "2"}, 2, ""},
		{[]string{"quorum", "-workers", "2"}, 2, ""},
	} {
		var out bytes.Buffer
		exit := make(chan int, 1)
		go func() { exit <- run(tc.args, &out) }()
		select {
		case code := <-exit:
			if code != tc.code {
				t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%v: still running after a minute, want exit %d", tc.args, tc.code)
		}
		if tc.want == "" && out.Len() > 0 {
			t.Errorf("%v: bad input printed %q", tc.args, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: stdout lacks %q:\n%s", tc.args, tc.want, out.String())
		}
	}
}

// TestQuorumVoteFanOut: `experiments quorum` counts the links (sender ≠
// receiver) votes travel on, each vote going only to the processes whose
// quorums contain its sender. On the Fig. 1 system every process has one
// quorum of 6, and 11 of the 30 are in their own, so 169 of the 870
// links; under threshold trust, all of them, and none at n = 1.
func TestQuorumVoteFanOut(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"quorum"}, "vote fan-out: 169 of 870 links\n"},
		{[]string{"quorum", "-system", "threshold", "-n", "4", "-f", "1"}, "vote fan-out: 12 of 12 links\n"},
		{[]string{"quorum", "-system", "threshold", "-n", "1", "-f", "0"}, "vote fan-out: 0 of 0 links\n"},
	} {
		var out bytes.Buffer
		if code := run(tc.args, &out); code != 0 || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: exit %d, stdout lacks %q:\n%s", tc.args, code, tc.want, out.String())
		}
	}
}

// update rewrites the golden output instead of comparing with it.
var update = flag.Bool("update", false, "rewrite "+goldenPath+" from the current output")

// goldenPath holds the stdout of a plain `experiments` run (all 15
// experiments). Every experiment is seeded, so a change that moves any
// printed figure fails TestExperimentsOutputDigest; rewrite the file
// (`go test ./cmd/experiments -run TestExperimentsOutputDigest -update`)
// only for a change meant to move one, and say which figure moved: the
// file's diff shows it.
const goldenPath = "testdata/experiments.golden"

// TestExperimentsOutputDigest pins the whole output of the paper harness,
// byte for byte, to goldenPath, and prints a line diff when it moves.
// `make test` also runs it at GOMAXPROCS 1, 2 and 4: the sweeps fan out
// over GOMAXPROCS goroutines and their output must not depend on how
// many.
func TestExperimentsOutputDigest(t *testing.T) {
	var out bytes.Buffer
	if code := run(nil, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if *update {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("stdout differs from %s (-want +got):\n%s", goldenPath, lineDiff(string(want), out.String()))
	}
}

// lineDiff returns the lines of a and b outside their longest common
// subsequence of lines, as "-<line no. in a>: <line>" and "+<line no. in
// b>: <line>", in order.
func lineDiff(a, b string) string {
	x, y := strings.Split(a, "\n"), strings.Split(b, "\n")
	// lcs[i][j] is the length of the longest common subsequence of x[i:]
	// and y[j:].
	lcs := make([][]int, len(x)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(y)+1)
	}
	for i := len(x) - 1; i >= 0; i-- {
		for j := len(y) - 1; j >= 0; j-- {
			if x[i] == y[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var d strings.Builder
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		switch {
		case i < len(x) && j < len(y) && x[i] == y[j]:
			i, j = i+1, j+1
		case i < len(x) && (j == len(y) || lcs[i+1][j] >= lcs[i][j+1]):
			fmt.Fprintf(&d, "-%d: %s\n", i+1, x[i])
			i++
		default:
			fmt.Fprintf(&d, "+%d: %s\n", j+1, y[j])
			j++
		}
	}
	return d.String()
}

// TestLineDiff: lineDiff marks exactly the lines outside the common
// subsequence, numbered in their own text.
func TestLineDiff(t *testing.T) {
	got := lineDiff("a\nb\nc\nd", "a\nB\nc\nd\ne")
	if want := "-2: b\n+2: B\n+5: e\n"; got != want {
		t.Fatalf("lineDiff = %q, want %q", got, want)
	}
	if got := lineDiff("same\n", "same\n"); got != "" {
		t.Fatalf("lineDiff of equal texts = %q, want \"\"", got)
	}
}

// TestFirstOrEmpty is the regression test for the -matrix panic: the row
// functions used to index sys.Quorums(p)[0] unguarded, so a process with
// zero quorums crashed the tool. The guarded accessor must fall back to
// the empty set.
func TestFirstOrEmpty(t *testing.T) {
	if got := firstOrEmpty(nil, 5); !got.IsEmpty() || got.UniverseSize() != 5 {
		t.Fatalf("firstOrEmpty(nil) = %v (universe %d), want empty set over 5", got, got.UniverseSize())
	}
	q := types.NewSetOf(5, 1, 3)
	if got := firstOrEmpty([]types.Set{q}, 5); !got.Equal(q) {
		t.Fatalf("firstOrEmpty returned %v, want %v", got, q)
	}
}

// TestBuildSystemKinds smoke-tests every generator the search mode fans
// out over, and that the batch analysis verdicts are sane for them.
func TestBuildSystemKinds(t *testing.T) {
	for _, kind := range []string{"counterexample", "threshold", "federated", "unl", "random"} {
		sys, err := buildSystem(kind, 12, 2, 9, 2, 3)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		a := quorum.AnalyzeSystem(sys)
		if a.TotalQuorums == 0 || a.SmallestQuorum <= 0 {
			t.Fatalf("%s: analysis %+v has no quorums", kind, a)
		}
		if kind == "counterexample" || kind == "threshold" || kind == "random" {
			if !a.Valid {
				t.Fatalf("%s: expected a valid system, got %v", kind, a.Err)
			}
		}
	}
	if _, err := buildSystem("nope", 4, 1, 3, 1, 1); err == nil {
		t.Fatal("unknown kind must error")
	}
}

func TestParseSet(t *testing.T) {
	s, err := parseSet("1, 3,17", 30)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(types.NewSetOf(30, 0, 2, 16)) {
		t.Fatalf("parseSet = %v", s)
	}
	if _, err := parseSet("0", 30); err == nil {
		t.Error("out-of-range process must error")
	}
	if _, err := parseSet("x", 30); err == nil {
		t.Error("non-numeric process must error")
	}
}

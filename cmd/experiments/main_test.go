package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

// TestSubcommands runs every subcommand in process on a tiny input, and
// each bad input the flags once let through: those must exit 2 before any
// run starts, so with nothing on stdout.
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
	} {
		var out bytes.Buffer
		if code := run(tc.args, &out); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
		if tc.want == "" && out.Len() > 0 {
			t.Errorf("%v: bad input printed %q", tc.args, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: stdout lacks %q:\n%s", tc.args, tc.want, out.String())
		}
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

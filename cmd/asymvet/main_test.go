package main

import (
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/wire"
)

// TestTreeClean runs the analyzer suite over the repository — the same
// gate `make lint` enforces — and requires zero findings: every
// violation must be fixed or carry an explanatory annotation. One
// subtest per analyzer over a single shared load, so a regression names
// the contract it broke.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	prog, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	for _, a := range lint.Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			for _, d := range lint.Run(prog, []*lint.Analyzer{a}) {
				t.Errorf("%s", d)
			}
		})
	}
}

// TestAuditTablesNameLivePackages guards the package-keyed tables against
// deletions: an entry in lint's deterministic or GC-audited set whose
// package is gone audits nothing, and a wire.TagRanges band whose package
// is gone reserves tags for nobody. Every entry must name a package that
// `go list repro/...` reports.
func TestAuditTablesNameLivePackages(t *testing.T) {
	cmd := exec.Command("go", "list", "repro/...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	live := map[string]bool{}
	for _, path := range strings.Fields(string(out)) {
		live[path] = true
	}
	check := func(table, path string) {
		if !live[path] {
			t.Errorf("%s names %s, which go list repro/... does not report", table, path)
		}
	}
	for path := range lint.DeterministicPkgs {
		check("lint.DeterministicPkgs", path)
	}
	for path := range lint.GCPkgs {
		check("lint.GCPkgs", path)
	}
	for path := range wire.TagRanges {
		check("wire.TagRanges", path)
	}
}

func mkDiag(analyzer, file string, line int, msg string) lint.Diagnostic {
	d := lint.Diagnostic{Analyzer: analyzer, Message: msg}
	d.Pos.Filename = file
	d.Pos.Line = line
	d.Pos.Column = 1
	return d
}

func TestApplyBaseline(t *testing.T) {
	wd := "/work"
	diags := []lint.Diagnostic{
		mkDiag("asymgc", "/work/a/a.go", 10, "field leaks"),
		mkDiag("asymgc", "/work/a/a.go", 40, "field leaks"), // duplicate message, different line
		mkDiag("asymbound", "/work/b/b.go", 5, "unchecked"),
	}
	base := map[string]int{
		baselineKey("asymgc", "a/a.go", "field leaks"): 1, // covers only ONE of the two
		baselineKey("asymwire", "c/c.go", "gone"):      1, // stale
	}
	kept, suppressed, stale := applyBaseline(diags, wd, base)
	if suppressed != 1 || stale != 1 {
		t.Fatalf("suppressed=%d stale=%d, want 1 and 1", suppressed, stale)
	}
	if len(kept) != 2 {
		t.Fatalf("kept %d findings, want 2: %v", len(kept), kept)
	}
	// The second asymgc duplicate must survive (multiplicity matters),
	// as must the unrelated asymbound finding.
	if kept[0].Pos.Line != 40 || kept[1].Analyzer != "asymbound" {
		t.Fatalf("wrong survivors: %v", kept)
	}
}

func TestApplyBaselineLineInsensitive(t *testing.T) {
	// A baseline recorded at one line still suppresses the finding after
	// it drifts to another.
	diags := []lint.Diagnostic{mkDiag("asymshare", "/work/x.go", 99, "races")}
	base := map[string]int{baselineKey("asymshare", "x.go", "races"): 1}
	kept, suppressed, stale := applyBaseline(diags, "/work", base)
	if len(kept) != 0 || suppressed != 1 || stale != 0 {
		t.Fatalf("kept=%v suppressed=%d stale=%d", kept, suppressed, stale)
	}
}

func TestToJSONRelativizesPaths(t *testing.T) {
	got := toJSON([]lint.Diagnostic{
		mkDiag("asymgc", "/work/a/a.go", 3, "m"),
		mkDiag("asymgc", "/elsewhere/b.go", 7, "n"),
	}, "/work")
	want := []jsonDiag{
		{Analyzer: "asymgc", File: "a/a.go", Line: 3, Column: 1, Message: "m"},
		{Analyzer: "asymgc", File: "/elsewhere/b.go", Line: 7, Column: 1, Message: "n"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("toJSON:\n got %+v\nwant %+v", got, want)
	}
}

func TestSelectAnalyzers(t *testing.T) {
	sel, err := selectAnalyzers("asymgc, asymbound")
	if err != nil || len(sel) != 2 {
		t.Fatalf("sel=%v err=%v", sel, err)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Fatal("unknown analyzer name must be rejected")
	}
}

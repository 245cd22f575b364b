package main

import (
	"os/exec"
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

// TestAuditTablesNameLivePackages guards wire.TagRanges against
// deletions: a band whose package is gone reserves tags for nobody.
// Every entry must name a package that `go list repro/...` reports.
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
	for path := range wire.TagRanges {
		if !live[path] {
			t.Errorf("wire.TagRanges names %s, which go list repro/... does not report", path)
		}
	}
}

// Command asymvet is the repository's custom static-analysis gate: it
// runs the internal/lint analyzers (asymdeterminism, asymwire,
// asymsizer, asymbound, asymshare, asymgc — see internal/lint's package
// comment for the contracts they enforce) over the given package
// patterns and exits non-zero on any finding.
//
// Usage:
//
//	asymvet [-only name[,name]] [-json] [-baseline file] [packages...]
//
// Patterns default to ./... relative to the current directory. asymvet
// is a standalone multichecker rather than a `go vet -vettool` plugin —
// the vettool protocol requires golang.org/x/tools, which this build
// does not vendor — so it loads and type-checks packages itself via
// `go list -export`. `make lint` (and through it `make test`) runs it
// tree-wide; stock `go vet` still runs separately for the standard
// analyzers.
//
// -json emits the findings as a JSON array instead of text. -baseline
// takes a file in that same JSON format (typically the -json output of
// an earlier run) and suppresses findings matching an entry's analyzer,
// file, and message — line numbers are ignored so a baseline survives
// unrelated edits; baseline entries that no longer match anything are
// reported as stale on stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	baselinePath := flag.String("baseline", "", "JSON findings file (as produced by -json) whose entries are suppressed")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asymvet:", err)
		os.Exit(2)
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "asymvet:", err)
		os.Exit(2)
	}

	prog, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asymvet:", err)
		os.Exit(2)
	}
	diags := lint.Run(prog, analyzers)

	if *baselinePath != "" {
		base, err := loadBaseline(*baselinePath, wd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "asymvet:", err)
			os.Exit(2)
		}
		var suppressed, stale int
		diags, suppressed, stale = applyBaseline(diags, wd, base)
		if suppressed > 0 {
			fmt.Fprintf(os.Stderr, "asymvet: %d finding(s) suppressed by baseline\n", suppressed)
		}
		if stale > 0 {
			fmt.Fprintf(os.Stderr, "asymvet: %d stale baseline entry(ies) matched no finding; refresh with -json\n", stale)
		}
	}

	if *jsonOut {
		if err := emitJSON(os.Stdout, diags, wd); err != nil {
			fmt.Fprintln(os.Stderr, "asymvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "asymvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	analyzers := lint.Analyzers()
	if only == "" {
		return analyzers, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var sel []*lint.Analyzer
	for _, a := range analyzers {
		if want[a.Name] {
			sel = append(sel, a)
			delete(want, a.Name)
		}
	}
	for name := range want {
		return nil, fmt.Errorf("unknown analyzer %q", name)
	}
	return sel, nil
}

// jsonDiag is the machine-readable finding format shared by -json
// output and -baseline input. File is relative to the working directory
// when possible, so baselines survive checkout moves.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// relFile normalizes a diagnostic's file path for JSON output and
// baseline matching.
func relFile(wd, file string) string {
	if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

func toJSON(diags []lint.Diagnostic, wd string) []jsonDiag {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			Analyzer: d.Analyzer,
			File:     relFile(wd, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	return out
}

func emitJSON(w io.Writer, diags []lint.Diagnostic, wd string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(toJSON(diags, wd))
}

// baselineKey identifies a finding for suppression: analyzer + file +
// message, deliberately excluding the line so unrelated edits above a
// baselined finding do not un-suppress it.
func baselineKey(analyzer, file, message string) string {
	return analyzer + "\x00" + file + "\x00" + message
}

// loadBaseline reads a -json findings file into suppression counts
// (multiplicity matters: two identical findings need two entries).
func loadBaseline(path, wd string) (map[string]int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %v", err)
	}
	var entries []jsonDiag
	if err := json.Unmarshal(b, &entries); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %v", path, err)
	}
	base := map[string]int{}
	for _, e := range entries {
		base[baselineKey(e.Analyzer, relFile(wd, e.File), e.Message)]++
	}
	return base, nil
}

// applyBaseline drops findings covered by the baseline, returning the
// survivors, the suppressed count, and the count of stale baseline
// entries that matched nothing.
func applyBaseline(diags []lint.Diagnostic, wd string, base map[string]int) ([]lint.Diagnostic, int, int) {
	remaining := map[string]int{}
	for k, n := range base {
		remaining[k] = n
	}
	var kept []lint.Diagnostic
	suppressed := 0
	for _, d := range diags {
		key := baselineKey(d.Analyzer, relFile(wd, d.Pos.Filename), d.Message)
		if remaining[key] > 0 {
			remaining[key]--
			suppressed++
			continue
		}
		kept = append(kept, d)
	}
	stale := 0
	for _, n := range remaining {
		stale += n
	}
	return kept, suppressed, stale
}

// Command asymvet is the repository's custom static-analysis gate: it
// runs the internal/lint analyzers (asymwire and asymsizer — see
// internal/lint's package comment for the contracts they enforce, and for
// the determinism, bounded-memory, parallel-delivery and tag-range
// contracts tests check at run time) over the given package patterns,
// prints each finding, and exits 1 on any.
//
// Usage:
//
//	asymvet [packages...]
//
// Patterns default to ./... relative to the current directory. asymvet
// is a standalone multichecker rather than a `go vet -vettool` plugin —
// the vettool protocol requires golang.org/x/tools, which this build
// does not vendor — so it loads and type-checks packages itself via
// `go list -export`. `make lint` (and through it `make test`) runs it
// tree-wide; stock `go vet` still runs separately for the standard
// analyzers.
package main

import (
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
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
	diags := lint.Run(prog, lint.Analyzers())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "asymvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

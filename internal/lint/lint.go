package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one static check. The framework mirrors the shape of
// golang.org/x/tools/go/analysis just closely enough for the checks
// here: an analyzer runs once per package and reports diagnostics
// through its Pass. Directive names the //lint: suppression the
// analyzer honours.
type Analyzer struct {
	Name      string
	Directive string
	Run       func(*Pass)
}

// Pass is one (analyzer, package) run: the package's syntax and type
// information plus access to the whole loaded program for the
// cross-package checks (wire registrations live in a different package
// than some send sites).
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppress reports whether the analyzer's directive is attached to the
// node at pos (same line or the line above).
func (p *Pass) suppress(pos token.Pos) bool {
	return p.Pkg.directiveAt(p.Prog.Fset, pos, p.Analyzer.Directive)
}

// Diagnostic is one finding, with the position resolved for printing.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Package is one type-checked analysis target.
type Package struct {
	Path  string
	Name  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// directives maps "file:line" to the lint directives present on that
	// line (see doc.go: //lint:<name> <reason>).
	directives map[string][]directiveEntry
}

// directiveEntry is one //lint: comment occurrence.
type directiveEntry struct {
	Name string
	Pos  token.Pos
}

// Program is a loaded set of packages sharing one FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	// regs caches Program.registered (wirecomplete.go).
	regs map[string]bool
}

const directivePrefix = "//lint:"

// collectDirectives indexes every //lint: comment of f by line.
func collectDirectives(fset *token.FileSet, f *ast.File, into map[string][]directiveEntry) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			name, _, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			into[key] = append(into[key], directiveEntry{Name: name, Pos: c.Pos()})
		}
	}
}

// directiveAt reports whether a //lint:name directive is attached to the
// node at pos: on the same line, or on the line immediately above.
func (p *Package) directiveAt(fset *token.FileSet, pos token.Pos, name string) bool {
	at := fset.Position(pos)
	for _, line := range []int{at.Line, at.Line - 1} {
		for _, e := range p.directives[fmt.Sprintf("%s:%d", at.Filename, line)] {
			if e.Name == name {
				return true
			}
		}
	}
	return false
}

// docDirective reports whether a doc comment group carries //lint:name.
func docDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, directivePrefix) {
			n, _, _ := strings.Cut(strings.TrimPrefix(c.Text, directivePrefix), " ")
			if n == name {
				return true
			}
		}
	}
	return false
}

// directiveLines returns the package's directive index keys sorted for
// deterministic reporting.
func (p *Package) directiveLines() []string {
	keys := make([]string, 0, len(p.directives))
	for k := range p.directives {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{WireAnalyzer, SizerAnalyzer}
}

// Run applies each analyzer to each package of prog and returns the
// findings sorted by position then analyzer — a stable order regardless
// of package load order. It also reports, in every package, each //lint:
// directive that names no analyzer of the suite: a misspelled name would
// otherwise silently suppress nothing.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var known []string
	for _, a := range Analyzers() {
		known = append(known, a.Directive)
	}
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		for _, key := range pkg.directiveLines() {
			for _, e := range pkg.directives[key] {
				if !slices.Contains(known, e.Name) {
					diags = append(diags, Diagnostic{
						Analyzer: "lint",
						Pos:      prog.Fset.Position(e.Pos),
						Message:  fmt.Sprintf("unknown lint directive //lint:%s (known: %s)", e.Name, strings.Join(known, ", ")),
					})
				}
			}
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// typeKey is the cross-package identity of a Go type: its types.TypeString
// with full package paths ("repro/internal/coin.ShareMsg",
// "*repro/internal/rider.VertexPayload"). Dynamic (reflect) type identity
// at runtime coincides with this for the concrete types the analyzers
// compare.
func typeKey(t types.Type) string {
	return types.TypeString(t, nil)
}

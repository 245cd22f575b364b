package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe matches one expectation in a fixture file: // want `regex`
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// runFixture loads ./testdata/<dir>, runs one analyzer, and checks the
// diagnostics against the fixture's want comments: every diagnostic must
// match a want on its line, and every want must be hit.
func runFixture(t *testing.T, analyzer *Analyzer, dir string) {
	t.Helper()
	prog, err := Load(".", "./testdata/"+dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	type want struct {
		pos     token.Position
		re      *regexp.Regexp
		matched bool
	}
	wants := map[string][]*want{}
	all := []*want{}
	for _, pkg := range prog.Packages {
		if !strings.HasPrefix(pkg.Path, "repro/internal/lint/testdata/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						pos := prog.Fset.Position(c.Pos())
						key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
						w := &want{pos: pos, re: regexp.MustCompile(m[1])}
						wants[key] = append(wants[key], w)
						all = append(all, w)
					}
				}
			}
		}
	}
	if len(all) == 0 {
		t.Fatalf("fixture %s declares no expectations", dir)
	}

	for _, d := range Run(prog, []*Analyzer{analyzer}) {
		if !strings.Contains(d.Pos.Filename, "/testdata/") {
			t.Errorf("diagnostic outside the fixture (the loaded tree packages should be clean): %s", d)
			continue
		}
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	// Report each unmatched want at its own file:line, in source order,
	// so a failing run reads like a compiler error list.
	sort.Slice(all, func(i, j int) bool {
		if all[i].pos.Filename != all[j].pos.Filename {
			return all[i].pos.Filename < all[j].pos.Filename
		}
		return all[i].pos.Line < all[j].pos.Line
	})
	for _, w := range all {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q was not reported", w.pos.Filename, w.pos.Line, w.re)
		}
	}
}

func TestWireFixture(t *testing.T) { runFixture(t, WireAnalyzer, "wire") }

func TestSizerFixture(t *testing.T) { runFixture(t, SizerAnalyzer, "sizer") }

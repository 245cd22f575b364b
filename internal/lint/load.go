package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Module     *struct{ Path string }
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -json -deps patterns...` in dir and
// decodes the package stream. -export makes the go command write export
// data for every listed package (and its dependencies, std included)
// into the build cache and report the file path, which is what lets the
// type-checker resolve imports without golang.org/x/tools.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{"list", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a go/types importer resolving every import path
// through the export-data files go list reported.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// checkConfig is the shared type-checker configuration.
func checkConfig(imp types.Importer) *types.Config {
	return &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// parseAndCheck parses files and type-checks them as one package under
// importPath, populating directives from the comments.
func parseAndCheck(fset *token.FileSet, imp types.Importer, importPath string, files []string) (*Package, error) {
	pkg := &Package{Path: importPath, directives: map[string][]directiveEntry{}}
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", f, err)
		}
		pkg.Files = append(pkg.Files, af)
		collectDirectives(fset, af, pkg.directives)
	}
	info := newInfo()
	tpkg, err := checkConfig(imp).Check(importPath, fset, pkg.Files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	pkg.Name = tpkg.Name()
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// Load type-checks every module package matched by patterns (plus their
// in-module dependencies) from source, resolving imports through build
// cache export data, and returns them as an analyzable Program. Test
// files are not loaded; see doc.go.
func Load(dir string, patterns ...string) (*Program, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	prog := &Program{Fset: token.NewFileSet()}
	imp := exportImporter(prog.Fset, exports)
	for _, p := range pkgs {
		// Only in-module packages are analyzed. A cgo package cannot be
		// type-checked from plain source; none exist in this module, but
		// skip rather than fail.
		if p.Standard || p.Module == nil || len(p.CgoFiles) > 0 {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := parseAndCheck(prog.Fset, imp, p.ImportPath, files)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

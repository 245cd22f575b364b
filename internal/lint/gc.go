package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// GCAnalyzer enforces the bounded-memory contract: protocol state keyed
// or indexed by a monotonically advancing coordinate — round, wave,
// sequence number, slot — grows forever unless something prunes it. Any
// struct field in the GC-audited packages that is a map keyed by such a
// coordinate, or a slice whose name says it accumulates per-coordinate
// history, must have at least one prune site somewhere in the program:
// a delete(), a clear(), or a shrinking reassignment (x.f = x.f[k:],
// x.f = keep, x.f = nil). Fields retained on purpose carry
// //lint:retained <why bounded>. See doc.go.
var GCAnalyzer = &Analyzer{
	Name:      "asymgc",
	Directive: "retained",
	Run:       runGC,
}

// GCPkgs is the audited set: the packages holding per-round protocol
// state that the GC watermarks (core.Config.GCDepth) keep flat. sim and
// harness are absent (they hold per-run scaffolding, reset between
// runs, not per-coordinate protocol state).
var GCPkgs = map[string]bool{
	"repro/internal/dag":       true,
	"repro/internal/gather":    true,
	"repro/internal/broadcast": true,
	"repro/internal/coin":      true,
	"repro/internal/rider":     true,
	"repro/internal/core":      true,
	"repro/internal/service":   true,
	"repro/internal/baseline":  true,
}

func inGCScope(path string) bool {
	return GCPkgs[path] || strings.HasPrefix(path, "repro/internal/lint/testdata/")
}

// coordFieldRe matches struct-field names that denote an advancing
// coordinate; coordSliceRe matches slice-field names that accumulate
// per-coordinate history.
var (
	coordFieldRe = regexp.MustCompile(`(?i)^(round|wave|seq|sequence|slot)$`)
	coordSliceRe = regexp.MustCompile(`(?i)(round|wave|seq|slot|deliver|commit|log|tail|buffer|histor)`)
)

func runGC(pass *Pass) {
	if !inGCScope(pass.Pkg.Path) {
		return
	}
	pruned := pass.Prog.pruneSites()

	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					pass.checkGCField(ts.Name.Name, field, pruned)
				}
			}
		}
	}
	pass.reportUnused("unpruned coordinate-keyed field")
}

func (pass *Pass) checkGCField(typeName string, field *ast.Field, pruned map[string]bool) {
	ft := pass.Pkg.Info.TypeOf(field.Type)
	if ft == nil {
		return
	}
	why := ""
	switch u := ft.Underlying().(type) {
	case *types.Map:
		if k := coordKeyKind(u.Key()); k != "" {
			why = "map keyed by " + k
		}
	case *types.Slice:
		for _, name := range field.Names {
			if coordSliceRe.MatchString(name.Name) {
				why = "slice accumulating per-coordinate history (name matches " + coordSliceRe.String() + ")"
				break
			}
		}
	}
	if why == "" {
		return
	}
	for _, name := range field.Names {
		fieldKey := pass.Pkg.Path + "." + typeName + "." + name.Name
		if pruned[fieldKey] {
			continue
		}
		d := pass.Analyzer.Directive
		if pass.suppress(name.Pos()) || docDirective(field.Doc, d) || docDirective(field.Comment, d) {
			// Doc-comment directives count as used too.
			for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
				if cg != nil {
					pass.suppress(cg.Pos())
				}
			}
			continue
		}
		pass.Reportf(name.Pos(),
			"field %s.%s is a %s but no prune path (delete/clear/shrinking reassign) exists anywhere in the program: it grows for the lifetime of the node; wire it into collectGarbage/PruneBelow or annotate //lint:retained <why bounded>", typeName, name.Name, why)
	}
}

// coordKeyKind classifies a map key type as an advancing coordinate:
// a plain or named integer (rounds, waves, sequence numbers — but NOT
// types.ProcessID, which ranges over the fixed process universe), or a
// struct with an integer field named like a coordinate (broadcast.Slot's
// Seq). Returns "" for out-of-scope key types.
func coordKeyKind(key types.Type) string {
	if named, ok := key.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Name() == "ProcessID" {
			return ""
		}
	}
	switch u := key.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsInteger != 0 {
			return "integer coordinate (" + types.TypeString(key, nil) + ")"
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !coordFieldRe.MatchString(f.Name()) {
				continue
			}
			if b, ok := f.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				return "struct coordinate (" + types.TypeString(key, nil) + " with advancing field " + f.Name() + ")"
			}
		}
	}
	return ""
}

// pruneSites indexes, once per Program, every field that some function
// in the program prunes: delete(x.f, k), clear(x.f), or an assignment
// x.f = RHS whose RHS is not a growth (append of the same field) and
// not an initialization (make / composite literal). Keys are
// "pkgpath.Type.Field".
func (prog *Program) pruneSites() map[string]bool {
	if prog.pruned != nil {
		return prog.pruned
	}
	prog.pruned = map[string]bool{}
	for _, pkg := range prog.Packages {
		for _, key := range packagePruneSites(pkg) {
			prog.pruned[key] = true
		}
	}
	return prog.pruned
}

// packagePruneSites returns the sorted field keys one package's code
// prunes.
func packagePruneSites(pkg *Package) []string {
	set := map[string]bool{}
	forEachFuncDecl(pkg, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name := builtinName(pkg, n); (name == "delete" || name == "clear") && len(n.Args) >= 1 {
					if key, ok := fieldSelKey(pkg, n.Args[0]); ok {
						set[key] = true
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN {
					return true
				}
				for i, lhs := range n.Lhs {
					key, ok := fieldSelKey(pkg, lhs)
					if !ok {
						continue
					}
					if i < len(n.Rhs) && isGrowthOrInit(pkg, lhs, n.Rhs[i]) {
						continue
					}
					set[key] = true
				}
			}
			return true
		})
	})
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fieldSelKey resolves expr to a struct-field selector and returns its
// "pkgpath.Type.Field" key.
func fieldSelKey(pkg *Package, e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	f, ok := s.Obj().(*types.Var)
	if !ok || f.Pkg() == nil {
		return "", false
	}
	return f.Pkg().Path() + "." + typeBaseName(s.Recv()) + "." + f.Name(), true
}

// isGrowthOrInit reports whether assigning rhs to the field lhs grows or
// initializes it rather than pruning: append(lhs, ...) (growth), make()
// or a composite literal (constructor-style initialization).
func isGrowthOrInit(pkg *Package, lhs, rhs ast.Expr) bool {
	switch r := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		switch builtinName(pkg, r) {
		case "make":
			return true
		case "append":
			if len(r.Args) > 0 {
				return types.ExprString(ast.Unparen(r.Args[0])) == types.ExprString(ast.Unparen(lhs))
			}
		}
	}
	return false
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// DeterminismAnalyzer flags wall-clock reads, global math/rand usage and
// nondeterministically-ordered map iteration in the deterministic
// packages. See doc.go ("Static contracts") for the full rule set and
// the recognized order-insensitive idioms.
var DeterminismAnalyzer = &Analyzer{
	Name:      "asymdeterminism",
	Directive: "ordered",
	Run:       runDeterminism,
}

// DeterministicPkgs is the audited package set: everything that executes
// under the simulator's pure-function-of-the-seed contract. transport is
// deliberately absent (it is the real-network layer: wall-clock reads
// and connection-map iteration are its job), as are the pure-analysis
// quorum/types packages and the tooling under cmd/.
var DeterministicPkgs = map[string]bool{
	"repro":                    true,
	"repro/internal/sim":       true,
	"repro/internal/dag":       true,
	"repro/internal/gather":    true,
	"repro/internal/broadcast": true,
	"repro/internal/coin":      true,
	"repro/internal/rider":     true,
	"repro/internal/core":      true,
	"repro/internal/scenario":  true,
	"repro/internal/service":   true,
	"repro/internal/harness":   true,
	"repro/internal/baseline":  true,
}

func inDeterministicScope(path string) bool {
	return DeterministicPkgs[path] || strings.HasPrefix(path, "repro/internal/lint/testdata/")
}

// bannedTimeFuncs are the wall-clock entry points of package time.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "Sleep": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// allowedRandFuncs are the math/rand package-level functions that do NOT
// touch the global source: constructors for explicitly seeded state.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	pkg := pass.Pkg
	scoped := inDeterministicScope(pkg.Path)

	// Directive hygiene runs everywhere: a misspelled directive name
	// would otherwise silently suppress nothing.
	unknownDirectives(pass)
	if !scoped {
		return
	}

	for _, file := range pkg.Files {
		w := &detWalker{pass: pass}
		ast.Inspect(file, w.visit)
	}
	pass.reportUnused("map range")
}

func unknownDirectives(pass *Pass) {
	for _, key := range pass.Pkg.directiveLines() {
		for _, e := range pass.Pkg.directives[key] {
			if !slices.Contains(knownDirectives, e.Name) {
				pass.Reportf(e.Pos, "unknown lint directive //lint:%s (known: %s)", e.Name, strings.Join(knownDirectives, ", "))
			}
		}
	}
}

// detWalker walks one file tracking the enclosing function body (the
// sorted-collect idiom needs to look for a later sort call in it).
type detWalker struct {
	pass     *Pass
	fnBodies []*ast.BlockStmt
	nodes    []ast.Node
}

func (w *detWalker) visit(n ast.Node) bool {
	if n == nil {
		popped := w.nodes[len(w.nodes)-1]
		w.nodes = w.nodes[:len(w.nodes)-1]
		switch popped.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			w.fnBodies = w.fnBodies[:len(w.fnBodies)-1]
		}
		return true
	}
	w.nodes = append(w.nodes, n)
	switch n := n.(type) {
	case *ast.FuncDecl:
		w.fnBodies = append(w.fnBodies, n.Body)
	case *ast.FuncLit:
		w.fnBodies = append(w.fnBodies, n.Body)
	case *ast.CallExpr:
		w.checkCall(n)
	case *ast.RangeStmt:
		w.checkRange(n)
	}
	return true
}

func (w *detWalker) enclosingBody() *ast.BlockStmt {
	if len(w.fnBodies) == 0 {
		return nil
	}
	return w.fnBodies[len(w.fnBodies)-1]
}

// checkCall flags wall-clock and global-rand calls.
func (w *detWalker) checkCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := w.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTimeFuncs[fn.Name()] {
			w.pass.Reportf(call.Pos(),
				"call to time.%s: wall-clock nondeterminism in a deterministic package (virtual time comes from Env.Now)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			w.pass.Reportf(call.Pos(),
				"call to %s.%s draws from the process-global random source; use the run's seeded RNG (Env.Rand, or rand.New(rand.NewSource(seed)))", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkRange flags `for range` over a map unless annotated or recognized
// as order-insensitive.
func (w *detWalker) checkRange(rs *ast.RangeStmt) {
	t := w.pass.Pkg.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if w.pass.suppress(rs.Pos()) || w.orderInsensitive(rs) {
		return
	}
	w.pass.Reportf(rs.Pos(),
		"range over map %s: iteration order is nondeterministic and can reach protocol state, sends, metrics, or encoded output; iterate sorted keys, or annotate //lint:ordered <why order cannot escape>", types.ExprString(rs.X))
}

// orderInsensitive recognizes the loop-body idioms whose result cannot
// depend on iteration order (doc.go lists them).
func (w *detWalker) orderInsensitive(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return true
	}
	if w.sortedCollect(rs) || w.pruneLoop(rs) {
		return true
	}
	for _, stmt := range rs.Body.List {
		if !w.commutativeStmt(rs, stmt) {
			return false
		}
	}
	return true
}

// sortedCollect matches `for k, v := range m { s = append(s, k|v) }`
// followed, later in the same function, by a sort of s.
func (w *detWalker) sortedCollect(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	lhs := types.ExprString(asg.Lhs[0])
	if types.ExprString(call.Args[0]) != lhs {
		return false
	}
	elem, ok := call.Args[1].(*ast.Ident)
	if !ok || !(w.isRangeVar(rs.Key, elem) || w.isRangeVar(rs.Value, elem)) {
		return false
	}
	// The collected slice must be sorted after the loop.
	body := w.enclosingBody()
	if body == nil {
		return false
	}
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() || sorted {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := w.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		p := fn.Pkg().Path()
		if p != "sort" && p != "slices" {
			return true
		}
		if !strings.HasPrefix(fn.Name(), "Sort") &&
			!map[string]bool{"Strings": true, "Ints": true, "Float64s": true, "Slice": true, "SliceStable": true, "Stable": true}[fn.Name()] {
			return true
		}
		if len(call.Args) >= 1 && types.ExprString(call.Args[0]) == lhs {
			sorted = true
		}
		return true
	})
	return sorted
}

// pruneLoop matches `for k := range m { delete(m, k) }`, optionally with
// a call-free guard: `for k := range m { if cond { delete(m, k) } }`.
func (w *detWalker) pruneLoop(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	stmt := rs.Body.List[0]
	if ifs, ok := stmt.(*ast.IfStmt); ok {
		if ifs.Else != nil || ifs.Init != nil || len(ifs.Body.List) != 1 || !callFree(ifs.Cond) {
			return false
		}
		stmt = ifs.Body.List[0]
	}
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "delete" {
		return false
	}
	if types.ExprString(call.Args[0]) != types.ExprString(rs.X) {
		return false
	}
	key, ok := call.Args[1].(*ast.Ident)
	return ok && w.isRangeVar(rs.Key, key)
}

// commutativeStmt accepts statements whose combined effect is the same
// in any iteration order: integer ++/-- and commutative compound
// assignments, and plain writes through an index that is exactly the
// range key (distinct keys touch distinct slots).
func (w *detWalker) commutativeStmt(rs *ast.RangeStmt, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return w.commutativeLHS(s.X) && callFree(s.X)
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_ASSIGN:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			return w.commutativeLHS(s.Lhs[0]) && callFree(s.Lhs[0]) && callFree(s.Rhs[0])
		case token.ASSIGN:
			for _, lhs := range s.Lhs {
				idx, ok := lhs.(*ast.IndexExpr)
				if !ok || !callFree(idx.X) {
					return false
				}
				key, ok := idx.Index.(*ast.Ident)
				if !ok || !w.isRangeVar(rs.Key, key) {
					return false
				}
			}
			for _, rhs := range s.Rhs {
				if !callFree(rhs) {
					return false
				}
			}
			return true
		}
	}
	return false
}

// commutativeLHS accepts an accumulator whose compound updates commute:
// any integer (float rounding and string concatenation are
// order-dependent).
func (w *detWalker) commutativeLHS(e ast.Expr) bool {
	t := w.pass.Pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isRangeVar reports whether id denotes the same variable as the range
// clause's key/value expression v.
func (w *detWalker) isRangeVar(v ast.Expr, id *ast.Ident) bool {
	vid, ok := v.(*ast.Ident)
	if !ok || vid.Name == "_" {
		return false
	}
	obj := w.pass.Pkg.Info.ObjectOf(vid)
	return obj != nil && obj == w.pass.Pkg.Info.ObjectOf(id)
}

// callFree reports whether e contains no function calls (so evaluating
// it cannot have order-dependent side effects). Conversions count as
// calls here; the idioms stay conservative.
func callFree(e ast.Expr) bool {
	free := true
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			free = false
		}
		return free
	})
	return free
}

package lint

// The interprocedural dataflow layer: per-function AST-level value-flow
// summaries over the already type-checked packages, composed across the
// whole loaded program by a bottom-up fixed point. The asymbound,
// asymshare and asymgc analyzers are built on it. See doc.go ("The
// dataflow layer") for the summary format and its deliberate
// approximations.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// funcKey is the cross-package identity of a function or method. Object
// pointers cannot be compared across packages — a package type-checked
// from source and the same package seen through a dependent's export
// data yield distinct *types.Func objects — so the flow layer keys every
// summary by this string ("pkgpath.Type.Method" / "pkgpath.Func").
func funcKeyOf(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return pkg + "." + typeBaseName(sig.Recv().Type()) + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// typeBaseName names a type ignoring one level of pointer indirection.
func typeBaseName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return types.TypeString(t, nil)
}

// resultFact describes one result of a function: whether it can carry an
// unchecked wire-derived quantity (FromSource) and which parameters flow
// into it without an intervening bound check (FromParams, a bitset over
// parameter indices — the pass-through that makes the taint analysis
// compositional).
type resultFact struct {
	FromSource bool
	FromParams uint64
}

// flowFacts is one function's dataflow summary. All fields are
// monotone — recomputation under richer callee summaries only ever adds
// facts — which is what makes the fixed point converge.
type flowFacts struct {
	// Results holds one fact per declared result.
	Results []resultFact
	// SinkParams marks parameters that flow, unsanitized, into an
	// allocation/index/loop-bound sink inside the function or one of its
	// callees; SinkNotes describes the sink for call-site diagnostics.
	SinkParams uint64
	SinkNotes  map[int]string
	// MutParams marks parameters whose referenced memory the function
	// writes through (directly or via a callee); MutRecv is the same
	// fact for the method receiver.
	MutParams uint64
	MutRecv   bool
	// Calls lists the funcKeys of statically resolved callees, sorted —
	// the call-graph edges reachability analyses walk.
	Calls []string
}

func factsEqual(a, b flowFacts) bool {
	if a.SinkParams != b.SinkParams || a.MutParams != b.MutParams || a.MutRecv != b.MutRecv {
		return false
	}
	if len(a.Results) != len(b.Results) || len(a.Calls) != len(b.Calls) {
		return false
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	for i := range a.Calls {
		if a.Calls[i] != b.Calls[i] {
			return false
		}
	}
	// SinkNotes follows SinkParams; no need to compare the texts.
	return true
}

// flowFunc is one function in the flow graph: a declaration with a body
// from a loaded package.
type flowFunc struct {
	key   string
	decl  *ast.FuncDecl
	pkg   *Package
	fn    *types.Func
	facts flowFacts
}

// flowGraph holds the converged summaries of every function in the
// program, keyed by funcKey.
type flowGraph struct {
	prog  *Program
	funcs map[string]*flowFunc
	keys  []string // sorted, for deterministic iteration
}

// flow computes (once per Program) the interprocedural summaries: every
// function is re-summarized until no summary changes, so facts propagate
// bottom-up through arbitrarily deep call chains, including recursion.
func (prog *Program) flow() *flowGraph {
	if prog.flowG != nil {
		return prog.flowG
	}
	fg := &flowGraph{prog: prog, funcs: map[string]*flowFunc{}}
	for _, pkg := range prog.Packages {
		pkg := pkg
		forEachFuncDecl(pkg, func(fd *ast.FuncDecl) {
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				return
			}
			ff := &flowFunc{key: funcKeyOf(fn), decl: fd, pkg: pkg, fn: fn}
			fg.funcs[ff.key] = ff
		})
	}
	fg.keys = make([]string, 0, len(fg.funcs))
	for k := range fg.funcs {
		fg.keys = append(fg.keys, k)
	}
	sort.Strings(fg.keys)

	// Fixed point: summaries are monotone, so this terminates; the
	// iteration cap is a safety net, not a tuning knob.
	for iter := 0; iter < 20; iter++ {
		changed := false
		for _, k := range fg.keys {
			ff := fg.funcs[k]
			nf := fg.summarize(ff)
			if !factsEqual(ff.facts, nf) {
				ff.facts = nf
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	prog.flowG = fg
	return fg
}

// summarize recomputes one function's summary from its body under the
// current callee summaries.
func (fg *flowGraph) summarize(ff *flowFunc) flowFacts {
	facts := flowFacts{}
	tw := newTaintWalker(fg, ff, nil)
	tw.walkFunc()
	facts.Results = tw.results
	facts.SinkParams = tw.sinkParams
	facts.SinkNotes = tw.sinkNotes
	facts.Calls = tw.sortedCalls()

	aw := newAliasWalker(fg, ff, nil, false)
	aw.walkFunc()
	facts.MutParams = aw.mutParams
	facts.MutRecv = aw.mutRecv
	return facts
}

// lookup returns the summary of the function behind a resolved callee
// object, if the program has one.
func (fg *flowGraph) lookup(fn *types.Func) (*flowFunc, bool) {
	ff, ok := fg.funcs[funcKeyOf(fn)]
	return ff, ok
}

// paramObjects returns the declared parameter objects of fd in order
// (flattened over grouped fields; blank names yield nils).
func paramObjects(pkg *Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed parameter
			continue
		}
		for _, name := range field.Names {
			out = append(out, pkg.Info.Defs[name])
		}
	}
	return out
}

// recvObject returns the receiver object of a method declaration.
func recvObject(pkg *Package, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pkg.Info.Defs[fd.Recv.List[0].Names[0]]
}

// resultObjects returns the named result objects (nil entries for
// unnamed results), plus the total result count.
func resultObjects(pkg *Package, fd *ast.FuncDecl) ([]types.Object, int) {
	var out []types.Object
	if fd.Type.Results == nil {
		return out, 0
	}
	n := 0
	for _, field := range fd.Type.Results.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			n++
			continue
		}
		for _, name := range field.Names {
			out = append(out, pkg.Info.Defs[name])
			n++
		}
	}
	return out, n
}

// calleeFunc resolves a call to a concrete *types.Func (package function
// or method with a statically known callee). Interface-method calls and
// calls through function values resolve to nothing — the flow layer is
// deliberately blind to dynamic dispatch (see doc.go).
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

// isConversion reports whether a call expression is a type conversion.
func isConversion(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// builtinName returns the name of a builtin callee ("make", "append",
// "len", ...) or "".
func builtinName(pkg *Package, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
		return id.Name
	}
	return ""
}

// rootIdent descends a selector/index/star/paren/slice chain to its
// leftmost identifier, or nil when the chain is rooted in a call or
// literal.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isPackageLevelVar reports whether obj is a package-scope variable.
func isPackageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// reachableFrom computes the forward call-graph closure of the given
// root funcKeys over the converged summaries.
func (fg *flowGraph) reachableFrom(roots []string) map[string]bool {
	seen := map[string]bool{}
	stack := append([]string(nil), roots...)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[k] {
			continue
		}
		seen[k] = true
		if ff, ok := fg.funcs[k]; ok {
			stack = append(stack, ff.facts.Calls...)
		}
	}
	return seen
}

// posOf is a small helper for diagnostics that may carry an invalid pos.
func posOf(n ast.Node) token.Pos {
	if n == nil {
		return token.NoPos
	}
	return n.Pos()
}

package lint

// The interprocedural dataflow layer: per-function AST-level mutation
// summaries and call edges over the already type-checked packages,
// composed across the whole loaded program by a bottom-up fixed point.
// The asymshare analyzer is built on it. See doc.go ("The dataflow
// layer") for the summary format and its deliberate approximations.

import (
	"go/ast"
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

// flowFacts is one function's dataflow summary.
type flowFacts struct {
	// MutParams marks parameters whose referenced memory the function
	// writes through (directly or via a callee); MutRecv is the same
	// fact for the method receiver. Both are monotone — recomputation
	// under richer callee summaries only ever adds facts — which is what
	// makes the fixed point converge.
	MutParams uint64
	MutRecv   bool
	// Calls lists the funcKeys of statically resolved callees — the
	// call-graph edges reachability analyses walk. It depends on the body
	// alone, so it is collected once, before the fixed point.
	Calls []string
}

// flowFunc is one function in the flow graph: a declaration with a body
// from a loaded package.
type flowFunc struct {
	decl  *ast.FuncDecl
	pkg   *Package
	facts flowFacts
}

// flowGraph holds the converged summaries of every function in the
// program, keyed by funcKey.
type flowGraph struct {
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
	fg := &flowGraph{funcs: map[string]*flowFunc{}}
	for _, pkg := range prog.Packages {
		pkg := pkg
		forEachFuncDecl(pkg, func(fd *ast.FuncDecl) {
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				return
			}
			ff := &flowFunc{decl: fd, pkg: pkg}
			ff.facts.Calls = calleeKeys(pkg, fd)
			fg.funcs[funcKeyOf(fn)] = ff
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
			aw := newAliasWalker(fg, ff, nil, false)
			aw.walkFunc()
			if aw.mutParams != ff.facts.MutParams || aw.mutRecv != ff.facts.MutRecv {
				ff.facts.MutParams, ff.facts.MutRecv = aw.mutParams, aw.mutRecv
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

// calleeKeys lists the funcKeys of the statically resolved calls in fd's
// body, closures included (repeats are harmless to reachableFrom).
func calleeKeys(pkg *Package, fd *ast.FuncDecl) []string {
	var keys []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(pkg, call); fn != nil {
				keys = append(keys, funcKeyOf(fn))
			}
		}
		return true
	})
	return keys
}

// shortFuncName renders a callee for diagnostics: pkg.Func or
// pkg.Type.Method.
func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = typeBaseName(sig.Recv().Type()) + "." + name
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
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

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShareAnalyzer enforces the parallel-delivery confinement contract:
// during same-time parallel delivery (sim.DeliveryWorkers > 1) the
// Receive handlers of distinct processes run concurrently, and a
// broadcast hands every one of them the SAME message value. State a
// handler touches must therefore be per-process (its receiver), reached
// through the buffering Env (whose commit path is serialized), or
// synchronized via sync/atomic. The analyzer flags, in any function
// reachable from a protocol Receive handler, (a) writes through memory
// reachable from the message parameter — the gather.Pairs
// shared-backing bug class — and (b) writes to package-level variables.
// Method calls on sync/atomic types pass automatically: the std library
// is outside the program, so no mutation fact exists for them.
// See doc.go.
var ShareAnalyzer = &Analyzer{
	Name:      "asymshare",
	Directive: "confined",
	Run:       runShare,
}

// DeterministicPkgs is the audited package set: everything that executes
// under the simulator's pure-function-of-the-seed contract, and so under
// its parallel delivery. transport is absent (its hosts run one node per
// goroutine), as are the pure-analysis quorum/types packages and the
// tooling under cmd/.
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

func runShare(pass *Pass) {
	if !inDeterministicScope(pass.Pkg.Path) {
		return
	}
	fg := pass.Prog.flow()
	roots := receiveRoots(pass.Prog)
	reach := fg.reachableFrom(roots)

	forEachFuncDecl(pass.Pkg, func(fd *ast.FuncDecl) {
		fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		if !reach[funcKeyOf(fn)] {
			return
		}
		ff := &flowFunc{decl: fd, pkg: pass.Pkg}
		newAliasWalker(fg, ff, pass, isReceiveHandler(pass.Pkg, fd)).walkFunc()
	})
	pass.reportUnused("shared-state write to govern")
}

// receiveRoots collects the funcKeys of every protocol Receive handler
// in the program: a method named Receive whose first parameter is
// sim.Env (the sim.Node surface the scheduler fans out over).
func receiveRoots(prog *Program) []string {
	var roots []string
	for _, pkg := range prog.Packages {
		roots = append(roots, packageReceiveRoots(pkg)...)
	}
	return roots
}

// packageReceiveRoots collects one package's Receive-handler funcKeys
// (empty outside the deterministic scope).
func packageReceiveRoots(pkg *Package) []string {
	if !inDeterministicScope(pkg.Path) {
		return nil
	}
	var roots []string
	forEachFuncDecl(pkg, func(fd *ast.FuncDecl) {
		if !isReceiveHandler(pkg, fd) {
			return
		}
		if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
			roots = append(roots, funcKeyOf(fn))
		}
	})
	return roots
}

// isReceiveHandler matches `func (x *T) Receive(env sim.Env, from ..., msg ...)`.
func isReceiveHandler(pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || fd.Name.Name != "Receive" {
		return false
	}
	params := paramObjects(pkg, fd)
	if len(params) != 3 || params[0] == nil {
		return false
	}
	t := params[0].Type()
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Env" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == simPkgPath
}

// aliasVal tracks what memory a local may alias: the enclosing
// function's parameters / receiver (for the compositional MutParams /
// MutRecv summary) and, in report mode on a Receive root, the shared
// message value.
type aliasVal struct {
	params uint64
	recv   bool
	msg    bool
}

func (a aliasVal) some() bool { return a.params != 0 || a.recv || a.msg }

func (a aliasVal) union(o aliasVal) aliasVal {
	return aliasVal{params: a.params | o.params, recv: a.recv || o.recv, msg: a.msg || o.msg}
}

// aliasWalker runs the mutation analysis over one function body. With
// pass == nil it computes the MutParams/MutRecv summary; with a pass it
// reports confinement violations (message-aliased and package-global
// writes). Aliases are tracked may-alias, union on every binding; call
// results are treated as fresh memory (a function returning an alias of
// its argument is invisible — the COW layers that do this own their
// synchronization and are race-tested).
type aliasWalker struct {
	fg     *flowGraph
	ff     *flowFunc
	pass   *Pass
	isRoot bool

	state     map[types.Object]aliasVal
	mutParams uint64
	mutRecv   bool
}

func newAliasWalker(fg *flowGraph, ff *flowFunc, pass *Pass, isRoot bool) *aliasWalker {
	return &aliasWalker{fg: fg, ff: ff, pass: pass, isRoot: isRoot,
		state: map[types.Object]aliasVal{}}
}

func (aw *aliasWalker) walkFunc() {
	fd := aw.ff.decl
	for i, obj := range paramObjects(aw.ff.pkg, fd) {
		if obj == nil || i >= 64 {
			continue
		}
		v := aliasVal{params: 1 << i}
		if aw.isRoot && i == 2 {
			v.msg = true // Receive(env, from, msg): the shared payload
		}
		aw.state[obj] = v
	}
	if obj := recvObject(aw.ff.pkg, fd); obj != nil {
		aw.state[obj] = aliasVal{recv: true}
	}
	aw.walk(fd.Body)
}

// mutate records a write through memory with the given alias set.
func (aw *aliasWalker) mutate(pos token.Pos, v aliasVal, how string) {
	aw.mutParams |= v.params
	aw.mutRecv = aw.mutRecv || v.recv
	if !v.msg || aw.pass == nil || aw.pass.suppress(pos) {
		return
	}
	aw.pass.Reportf(pos,
		"%s memory reachable from the delivered message: under parallel delivery every receiver of a broadcast shares this value, so the write races; copy before mutating, use sync/atomic, or annotate //lint:confined <why this memory is not shared>", how)
}

// globalWrite reports a write to a package-level variable on a
// Receive-reachable path.
func (aw *aliasWalker) globalWrite(pos token.Pos, obj types.Object) {
	if aw.pass == nil || aw.pass.suppress(pos) {
		return
	}
	aw.pass.Reportf(pos,
		"write to package-level variable %s on a path reachable from a Receive handler: concurrent deliveries race on it; confine the state to the node, use sync/atomic, or annotate //lint:confined <why>", obj.Name())
}

// evalAlias computes the alias set of an expression's value.
func (aw *aliasWalker) evalAlias(e ast.Expr) aliasVal {
	pkg := aw.ff.pkg
	switch e := e.(type) {
	case nil:
		return aliasVal{}
	case *ast.Ident:
		if obj := pkg.Info.ObjectOf(e); obj != nil {
			return aw.state[obj]
		}
		return aliasVal{}
	case *ast.ParenExpr:
		return aw.evalAlias(e.X)
	case *ast.SelectorExpr:
		if _, isPkg := pkg.Info.Uses[e.Sel].(*types.PkgName); isPkg {
			return aliasVal{}
		}
		return aw.evalAlias(e.X)
	case *ast.IndexExpr:
		return aw.evalAlias(e.X)
	case *ast.SliceExpr:
		return aw.evalAlias(e.X)
	case *ast.StarExpr:
		return aw.evalAlias(e.X)
	case *ast.TypeAssertExpr:
		return aw.evalAlias(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return aw.evalAlias(e.X)
		}
		return aliasVal{}
	case *ast.CompositeLit:
		out := aliasVal{}
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = out.union(aw.evalAlias(el))
		}
		return out
	case *ast.CallExpr:
		if isConversion(pkg, e) && len(e.Args) == 1 {
			return aw.evalAlias(e.Args[0])
		}
		if builtinName(pkg, e) == "append" && len(e.Args) > 0 {
			// The result may share args[0]'s backing array. Appended
			// VALUES are copied into it, so they do not alias the result —
			// which is what makes `append([]T(nil), shared...)` the
			// blessed copy-before-mutate idiom.
			return aw.evalAlias(e.Args[0])
		}
		return aliasVal{} // call results: treated as fresh memory
	}
	return aliasVal{}
}

// writeTarget classifies the left-hand side of a write: it returns the
// alias set of the memory being written through, or ok=false when the
// write only updates a local value (rebinding a variable, or a field of
// a value-typed local).
func (aw *aliasWalker) writeTarget(e ast.Expr) (aliasVal, types.Object, bool) {
	pkg := aw.ff.pkg
	switch e := e.(type) {
	case *ast.ParenExpr:
		return aw.writeTarget(e.X)
	case *ast.StarExpr:
		return aw.evalAlias(e.X), nil, true
	case *ast.IndexExpr:
		xt := pkg.Info.TypeOf(e.X)
		if xt != nil {
			switch xt.Underlying().(type) {
			case *types.Slice, *types.Map, *types.Pointer:
				return aw.evalAlias(e.X), nil, true
			}
		}
		return aw.writeTarget(e.X) // value array: writing mutates the holder
	case *ast.SelectorExpr:
		xt := pkg.Info.TypeOf(e.X)
		if xt != nil {
			if _, ok := xt.Underlying().(*types.Pointer); ok {
				return aw.evalAlias(e.X), nil, true
			}
		}
		if _, isPkg := pkg.Info.Uses[e.Sel].(*types.PkgName); isPkg {
			return aliasVal{}, nil, false
		}
		// x.f on a value: the write lands in whatever holds x.
		return aw.writeTarget(e.X)
	case *ast.Ident:
		obj := pkg.Info.ObjectOf(e)
		if obj == nil {
			return aliasVal{}, nil, false
		}
		if isPackageLevelVar(obj) {
			return aliasVal{}, obj, true
		}
		// A local value holder: writes to it (or its value fields) stay
		// local. Pointer-typed locals never reach here — writing through
		// them goes via StarExpr/SelectorExpr above.
		return aliasVal{}, nil, false
	}
	return aliasVal{}, nil, false
}

func (aw *aliasWalker) walkList(list []ast.Stmt) {
	for _, s := range list {
		aw.walk(s)
	}
}

func (aw *aliasWalker) walk(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		aw.walkList(s.List)
	case *ast.ExprStmt:
		aw.evalEffects(s.X)
	case *ast.AssignStmt:
		aw.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							aw.bind(name, aw.evalAlias(vs.Values[i]))
							aw.evalEffects(vs.Values[i])
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			aw.evalEffects(e)
		}
	case *ast.IfStmt:
		aw.walk(s.Init)
		aw.evalEffects(s.Cond)
		aw.walk(s.Body)
		aw.walk(s.Else)
	case *ast.ForStmt:
		aw.walk(s.Init)
		aw.evalEffects(s.Cond)
		aw.walk(s.Post)
		aw.walk(s.Body)
	case *ast.RangeStmt:
		x := aw.evalAlias(s.X)
		aw.evalEffects(s.X)
		// Range values over a shared container alias its elements only
		// for reference types; the value var copies — but the KEY of a
		// map/VALUE of a slice of pointers aliases. Conservative: bind
		// both vars to the container's alias set.
		for _, v := range []ast.Expr{s.Key, s.Value} {
			if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
				aw.bind(id, x)
			}
		}
		aw.walk(s.Body)
	case *ast.SwitchStmt:
		aw.walk(s.Init)
		aw.evalEffects(s.Tag)
		for _, cc := range s.Body.List {
			aw.walkList(cc.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		aw.walk(s.Init)
		aw.walk(s.Assign)
		for _, cc := range s.Body.List {
			aw.walkList(cc.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			c := cc.(*ast.CommClause)
			aw.walk(c.Comm)
			aw.walkList(c.Body)
		}
	case *ast.LabeledStmt:
		aw.walk(s.Stmt)
	case *ast.GoStmt:
		aw.evalEffects(s.Call)
	case *ast.DeferStmt:
		aw.evalEffects(s.Call)
	case *ast.SendStmt:
		aw.evalEffects(s.Chan)
		aw.evalEffects(s.Value)
	case *ast.IncDecStmt:
		if v, global, ok := aw.writeTarget(s.X); ok {
			if global != nil {
				aw.globalWrite(s.Pos(), global)
			} else {
				aw.mutate(s.Pos(), v, "increment of")
			}
		}
	}
}

// bind records a local (re)binding.
func (aw *aliasWalker) bind(id *ast.Ident, v aliasVal) {
	if id.Name == "_" {
		return
	}
	if obj := aw.ff.pkg.Info.ObjectOf(id); obj != nil {
		// May-alias: a rebinding in a loop can see either value, so union
		// instead of overwriting.
		aw.state[obj] = aw.state[obj].union(v)
	}
}

func (aw *aliasWalker) assign(s *ast.AssignStmt) {
	// Effects (mutating calls) inside the RHS first.
	for _, r := range s.Rhs {
		aw.evalEffects(r)
	}
	// Alias of each RHS value (multi-result calls yield fresh memory).
	var vals []aliasVal
	if len(s.Rhs) == len(s.Lhs) {
		vals = make([]aliasVal, len(s.Rhs))
		for i, r := range s.Rhs {
			vals[i] = aw.evalAlias(r)
		}
	} else {
		vals = make([]aliasVal, len(s.Lhs))
		if len(s.Rhs) == 1 {
			// v, ok := x.(T) / m[k] / <-ch: the carried value may alias
			// the asserted/indexed container (evalAlias sees through
			// both); the ok/bool slot stays fresh.
			vals[0] = aw.evalAlias(s.Rhs[0])
		}
	}
	for i, lhs := range s.Lhs {
		lhs := ast.Unparen(lhs)
		if id, ok := lhs.(*ast.Ident); ok {
			obj := aw.ff.pkg.Info.ObjectOf(id)
			if obj != nil && isPackageLevelVar(obj) {
				aw.globalWrite(lhs.Pos(), obj)
				continue
			}
			if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
				aw.bind(id, vals[i])
			}
			continue
		}
		if v, global, ok := aw.writeTarget(lhs); ok {
			if global != nil {
				aw.globalWrite(lhs.Pos(), global)
			} else {
				aw.mutate(lhs.Pos(), v, "write to")
			}
		}
	}
}

// evalEffects scans an expression for mutating calls: a statically
// resolved callee whose summary mutates its receiver or a parameter
// applies that mutation to the caller's aliases at the call site.
func (aw *aliasWalker) evalEffects(e ast.Expr) {
	if e == nil {
		return
	}
	pkg := aw.ff.pkg
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			aw.walk(fl.Body) // closures share the alias state
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isConversion(pkg, call) || builtinName(pkg, call) != "" {
			return true
		}
		fn := calleeFunc(pkg, call)
		if fn == nil {
			return true
		}
		ff, ok := aw.fg.funcs[funcKeyOf(fn)]
		if !ok {
			return true // outside the program (std lib, incl. sync/atomic)
		}
		if ff.facts.MutRecv {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if v := aw.evalAlias(sel.X); v.some() {
					aw.mutate(call.Pos(), v, "call to "+shortFuncName(fn)+", which mutates")
				}
			}
		}
		for i, a := range call.Args {
			if i >= 64 || ff.facts.MutParams&(1<<uint(i)) == 0 {
				continue
			}
			if v := aw.evalAlias(a); v.some() {
				aw.mutate(a.Pos(), v, "call to "+shortFuncName(fn)+", which mutates")
			}
		}
		return true
	})
}

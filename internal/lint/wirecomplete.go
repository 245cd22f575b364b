package lint

import (
	"go/ast"
	"go/types"
)

// WireAnalyzer enforces the wire-completeness contract: every message
// type handed to sim.Env.Send/Broadcast (the transport's hostEnv
// implements the same surface) has an internal/wire.Register codec. Tag
// ranges are checked by wire.Register itself, at init. See doc.go.
var WireAnalyzer = &Analyzer{
	Name:      "asymwire",
	Directive: "unwired",
	Run:       checkSendSites,
}

const wirePkgPath = "repro/internal/wire"
const simPkgPath = "repro/internal/sim"

// registered returns the typeKey of every prototype a wire.Register call
// in the program registers, following one level of package-local helper
// indirection (the registerDigestMsg/registerWaveMsg pattern: a helper
// whose prototype parameter is forwarded verbatim to wire.Register).
func (prog *Program) registered() map[string]bool {
	if prog.regs == nil {
		prog.regs = map[string]bool{}
		for _, pkg := range prog.Packages {
			packageRegistrations(pkg, prog.regs)
		}
	}
	return prog.regs
}

func packageRegistrations(pkg *Package, into map[string]bool) {
	registerObj := lookupPkgFunc(pkg, wirePkgPath, "Register")
	if registerObj == nil {
		return
	}
	// helpers maps a registration helper to its prototype parameter's
	// index.
	helpers := map[*types.Func]int{}

	// Pass 1: direct wire.Register calls. A call whose prototype argument
	// is a parameter of the enclosing function marks that function as a
	// registration helper.
	forEachFuncDecl(pkg, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 3 || calleeOf(pkg, call) != registerObj {
				return true
			}
			if addRegistration(pkg, call.Args[1], into) {
				return true
			}
			if pi, ok := paramIndex(pkg, fd, call.Args[1]); ok {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					helpers[fn] = pi
				}
			}
			return true
		})
	})

	// Pass 2: helper call sites resolve the forwarded prototype.
	if len(helpers) > 0 {
		forEachFuncDecl(pkg, func(fd *ast.FuncDecl) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, ok := calleeOf(pkg, call).(*types.Func)
				if !ok {
					return true
				}
				if pi, ok := helpers[fn]; ok && pi < len(call.Args) {
					addRegistration(pkg, call.Args[pi], into)
				}
				return true
			})
		})
	}
}

// addRegistration records the prototype's type when it has a concrete
// static type (the registered dynamic type).
func addRegistration(pkg *Package, protoArg ast.Expr, into map[string]bool) bool {
	pt := pkg.Info.TypeOf(protoArg)
	if pt == nil || types.IsInterface(pt) {
		return false
	}
	into[typeKey(pt)] = true
	return true
}

// checkSendSites flags concrete message types sent through the sim.Env
// surface without a wire codec.
func checkSendSites(pass *Pass) {
	envIface := envInterface(pass.Pkg)
	if envIface == nil {
		return // the package cannot name sim.Env, so it cannot send
	}
	registered := pass.Prog.registered()
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := pass.Pkg.Info.Selections[sel]
			if s == nil || s.Kind() != types.MethodVal {
				return true
			}
			var msgArg ast.Expr
			switch {
			case s.Obj().Name() == "Send" && len(call.Args) == 2:
				msgArg = call.Args[1]
			case s.Obj().Name() == "Broadcast" && len(call.Args) == 1:
				msgArg = call.Args[0]
			default:
				return true
			}
			recv := s.Recv()
			if !types.Implements(recv, envIface) && !types.Implements(types.NewPointer(recv), envIface) {
				return true
			}
			mt := pass.Pkg.Info.TypeOf(msgArg)
			if mt == nil || types.IsInterface(mt) {
				return true // dynamic type unknown here; checked at its construction site
			}
			if b, ok := mt.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
				return true
			}
			key := typeKey(mt)
			if registered[key] {
				return true
			}
			if pass.suppress(call.Pos()) || typeDeclUnwired(pass.Prog, mt) {
				return true
			}
			pass.Reportf(call.Pos(),
				"message type %s is sent through Env.%s but has no internal/wire.Register codec: simulated byte metrics fall back to an approximation and the TCP transport cannot carry it; register a codec or annotate //lint:unwired <why it never crosses a wire>", key, s.Obj().Name())
			return true
		})
	}
}

// envInterface returns the sim.Env interface as seen by pkg (its own
// scope when pkg IS sim, otherwise through its direct imports).
func envInterface(pkg *Package) *types.Interface {
	var simPkg *types.Package
	if pkg.Path == simPkgPath {
		simPkg = pkg.Types
	} else {
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == simPkgPath {
				simPkg = imp
				break
			}
		}
	}
	if simPkg == nil {
		return nil
	}
	obj := simPkg.Scope().Lookup("Env")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// typeDeclUnwired reports whether the named type behind t carries a
// //lint:unwired annotation on its declaration.
func typeDeclUnwired(prog *Program, t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	for _, pkg := range prog.Packages {
		if pkg.Path != obj.Pkg().Path() {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != obj.Name() {
						continue
					}
					if docDirective(ts.Doc, "unwired") || docDirective(gd.Doc, "unwired") {
						return true
					}
					return pkg.directiveAt(prog.Fset, ts.Pos(), "unwired")
				}
			}
		}
	}
	return false
}

// lookupPkgFunc finds the *types.Func named name in the package at path,
// resolved through pkg's own scope or direct imports.
func lookupPkgFunc(pkg *Package, path, name string) types.Object {
	var target *types.Package
	if pkg.Path == path {
		target = pkg.Types
	} else {
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == path {
				target = imp
				break
			}
		}
	}
	if target == nil {
		return nil
	}
	return target.Scope().Lookup(name)
}

// calleeOf resolves a call's callee object (selector or plain ident).
func calleeOf(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fun.Sel]
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	}
	return nil
}

// paramIndex reports the index of arg within fd's parameter list, when
// arg is an identifier naming one of fd's parameters.
func paramIndex(pkg *Package, fd *ast.FuncDecl, arg ast.Expr) (int, bool) {
	id, ok := arg.(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := pkg.Info.ObjectOf(id)
	if obj == nil {
		return 0, false
	}
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return 0, false
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i, true
		}
	}
	return 0, false
}

// forEachFuncDecl applies fn to every function declaration with a body.
func forEachFuncDecl(pkg *Package, fn func(*ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

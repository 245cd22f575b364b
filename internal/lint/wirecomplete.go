package lint

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/wire"
)

// WireAnalyzer enforces the wire-completeness contract: every message
// type handed to sim.Env.Send/Broadcast (the transport's hostEnv
// implements the same surface) has an internal/wire.Register codec, and
// every registration's tag falls in the registering package's assigned
// range (wire.TagRanges). See doc.go.
var WireAnalyzer = &Analyzer{
	Name:      "asymwire",
	Directive: "unwired",
	Run:       runWire,
}

// ExtraTagRanges extends wire.TagRanges for packages outside the real
// tree — the fixture packages under testdata claim a range here.
var ExtraTagRanges = map[string]wire.TagRange{}

const wirePkgPath = "repro/internal/wire"
const simPkgPath = "repro/internal/sim"

// Registration is one statically-resolved wire.Register call: the
// registered prototype's type and the claimed tag.
type Registration struct {
	TypeKey  string // typeKey of the prototype's static type
	Tag      uint64
	TagKnown bool
	PkgPath  string
	Pos      ast.Node
}

// registrations resolves every wire.Register call in the program,
// following one level of package-local helper indirection (the
// registerDigestMsg/registerWaveMsg pattern: a helper whose (tag,
// prototype) parameters are forwarded verbatim to wire.Register).
func (prog *Program) registrations() []Registration {
	if prog.regsDone {
		return prog.regs
	}
	prog.regsDone = true
	for _, pkg := range prog.Packages {
		prog.regs = append(prog.regs, packageRegistrations(pkg)...)
	}
	return prog.regs
}

// regHelper is a package-local function forwarding its parameters to
// wire.Register.
type regHelper struct {
	tagIdx, protoIdx int
}

func packageRegistrations(pkg *Package) []Registration {
	registerObj := lookupPkgFunc(pkg, wirePkgPath, "Register")
	if registerObj == nil {
		return nil
	}
	var regs []Registration
	helpers := map[*types.Func]regHelper{}

	// Pass 1: direct wire.Register calls. A call whose tag/prototype
	// arguments are both parameters of the enclosing function marks that
	// function as a registration helper.
	forEachFuncDecl(pkg, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 3 || calleeOf(pkg, call) != registerObj {
				return true
			}
			if r, ok := resolveRegistration(pkg, call.Args[0], call.Args[1], call); ok {
				regs = append(regs, r)
				return true
			}
			ti, tok := paramIndex(pkg, fd, call.Args[0])
			pi, pok := paramIndex(pkg, fd, call.Args[1])
			if tok && pok {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					helpers[fn] = regHelper{tagIdx: ti, protoIdx: pi}
				}
			}
			return true
		})
	})

	// Pass 2: helper call sites resolve the forwarded (tag, prototype).
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
				h, ok := helpers[fn]
				if !ok || len(call.Args) <= h.tagIdx || len(call.Args) <= h.protoIdx {
					return true
				}
				if r, ok := resolveRegistration(pkg, call.Args[h.tagIdx], call.Args[h.protoIdx], call); ok {
					regs = append(regs, r)
				}
				return true
			})
		})
	}
	for i := range regs {
		regs[i].PkgPath = pkg.Path
	}
	return regs
}

// resolveRegistration builds a Registration when the prototype argument
// has a concrete static type (the registered dynamic type).
func resolveRegistration(pkg *Package, tagArg, protoArg ast.Expr, at ast.Node) (Registration, bool) {
	pt := pkg.Info.TypeOf(protoArg)
	if pt == nil || types.IsInterface(pt) {
		return Registration{}, false
	}
	r := Registration{TypeKey: typeKey(pt), Pos: at}
	if tv, ok := pkg.Info.Types[tagArg]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if v, ok := constant.Uint64Val(tv.Value); ok {
			r.Tag, r.TagKnown = v, true
		}
	}
	return r, true
}

func runWire(pass *Pass) {
	checkRegistrationTags(pass)
	checkSendSites(pass)
}

// checkRegistrationTags validates this package's registrations against
// the central table.
func checkRegistrationTags(pass *Pass) {
	for _, r := range pass.Prog.registrations() {
		if r.PkgPath != pass.Pkg.Path || !r.TagKnown {
			continue
		}
		rng, ok := wire.TagRanges[r.PkgPath]
		if !ok {
			rng, ok = ExtraTagRanges[r.PkgPath]
		}
		switch {
		case r.Tag >= wire.TestTagFloor:
			pass.Reportf(r.Pos.Pos(),
				"wire.Register tag %d for %s is in the test-reserved band (>= %d); assign the package a range in wire.TagRanges", r.Tag, r.TypeKey, wire.TestTagFloor)
		case !ok:
			pass.Reportf(r.Pos.Pos(),
				"package %s registers wire tag %d but has no assigned range in wire.TagRanges", r.PkgPath, r.Tag)
		case !rng.Contains(r.Tag):
			pass.Reportf(r.Pos.Pos(),
				"wire.Register tag %d for %s is outside %s's assigned range [%d, %d] (wire.TagRanges)", r.Tag, r.TypeKey, r.PkgPath, rng.Lo, rng.Hi)
		}
	}
}

// checkSendSites flags concrete message types sent through the sim.Env
// surface without a wire codec.
func checkSendSites(pass *Pass) {
	envIface := envInterface(pass.Pkg)
	if envIface == nil {
		return // the package cannot name sim.Env, so it cannot send
	}
	registered := map[string]bool{}
	for _, r := range pass.Prog.registrations() {
		registered[r.TypeKey] = true
	}
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

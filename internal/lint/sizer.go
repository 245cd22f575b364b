package lint

import (
	"go/ast"
	"go/types"
)

// SizerAnalyzer flags types that implement sim.Sizer while also having a
// registered wire codec. sim.MessageSize always prefers the codec, so
// such a SimSize is either dead code whose figure can silently diverge
// from the real encoding, or a deliberate fallback for codecs that can
// report unencodable — the deliberate case carries a
// //lint:sizer-fallback annotation on the method. See doc.go.
var SizerAnalyzer = &Analyzer{
	Name:      "asymsizer",
	Directive: "sizer-fallback",
	Run:       runSizer,
}

func runSizer(pass *Pass) {
	registered := pass.Prog.registered()
	forEachFuncDecl(pass.Pkg, func(fd *ast.FuncDecl) {
		if fd.Name.Name != "SimSize" || fd.Recv == nil || len(fd.Recv.List) != 1 {
			return
		}
		fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			return
		}
		if b, ok := sig.Results().At(0).Type().(*types.Basic); !ok || b.Kind() != types.Int {
			return
		}
		recv := sig.Recv().Type()
		// The registered dynamic type may be the value or the pointer
		// form; either shadows this Sizer for messages of that form.
		base := recv
		if p, ok := recv.(*types.Pointer); ok {
			base = p.Elem()
		}
		if !registered[typeKey(base)] && !registered["*"+typeKey(base)] {
			return
		}
		if docDirective(fd.Doc, pass.Analyzer.Directive) || pass.suppress(fd.Pos()) {
			return
		}
		pass.Reportf(fd.Pos(),
			"%s implements sim.Sizer but its wire codec is authoritative for sim.MessageSize: the SimSize figure can silently diverge from real wire bytes; delete it, or annotate //lint:sizer-fallback <why the approximation is still consulted>", typeKey(recv))
	})
}

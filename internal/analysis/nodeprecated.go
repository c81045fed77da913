package analysis

import (
	"go/ast"
	"go/types"
)

// NoDeprecated fences off the retired pre-ctx batch entry points,
// DetectBatchStrategy and DetectBatchFused of a package named compat.
// A caller of either forfeits cancellation, span tracing and the tiled
// kernels — the ctx-first contract — so a call site anywhere outside
// that package is a finding, should the entry points ever come back.
var NoDeprecated = &Analyzer{
	Name: "nodeprecated",
	Doc:  "no package may call the retired pre-ctx entry points DetectBatchStrategy/DetectBatchFused",
	Run:  runNoDeprecated,
}

// deprecatedCalls maps entry-point name -> defining package name.
// Matching is by (function name, package name) rather than full import
// path so the analyzer's fixtures can model the entry points without
// replicating the module path.
var deprecatedCalls = map[string]string{
	"DetectBatchStrategy": "compat",
	"DetectBatchFused":    "compat",
}

func runNoDeprecated(pass *Pass) error {
	// The defining package may call its own entry points; everything
	// else is fenced out.
	if pass.Pkg.Name() == "compat" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var obj types.Object
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				obj = pass.TypesInfo.Uses[fun]
			case *ast.SelectorExpr:
				obj = pass.TypesInfo.Uses[fun.Sel]
			}
			if obj == nil || obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
				return true
			}
			if pkgName, bad := deprecatedCalls[obj.Name()]; bad && obj.Pkg().Name() == pkgName {
				pass.Reportf(call.Pos(),
					"call to deprecated %s.%s: use the ctx-first API (Detector.DetectBatch) so cancellation and spans propagate", obj.Pkg().Name(), obj.Name())
			}
			return true
		})
	}
	return nil
}

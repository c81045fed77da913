package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFirst machine-checks the PR-3 serving contract: cancellation must
// be able to reach every steal unit of the hot path, which only works
// if (a) every exported entry point that accepts a context takes it as
// the first parameter (so call chains cannot silently drop it), and
// (b) library code never manufactures its own context.Background()/
// TODO() — a fabricated root context disconnects the code below it
// from the caller's deadline and from the span tree (PR-4). Rule (a)
// applies to the hot-path packages (root bfast, core, sched, pipeline,
// baseline, history); rule (b) applies to every internal/ library.
// Pre-ctx wrappers kept for callers with no request context carry
// //lint:allow ctxfirst.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "hot-path entry points take context.Context first; internal libraries never call context.Background/TODO",
	Run:  runCtxFirst,
}

// ctxfirstEntryScope: packages whose exported API is the cancellable
// hot path.
var ctxfirstEntryScope = map[string]bool{
	"bfast":                   true,
	"bfast/internal/core":     true,
	"bfast/internal/sched":    true,
	"bfast/internal/pipeline": true,
	"bfast/internal/baseline": true,
	"bfast/internal/history":  true,
}

func runCtxFirst(pass *Pass) error {
	path := pass.Pkg.Path()
	inRepo := strings.HasPrefix(path, "bfast")
	checkEntries := !inRepo || ctxfirstEntryScope[path]
	checkBackground := !inRepo || strings.HasPrefix(path, "bfast/internal/")

	for _, f := range pass.Files {
		if checkEntries {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				checkCtxPosition(pass, fd)
			}
		}
		if checkBackground {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
				if !ok || pn.Imported().Path() != "context" {
					return true
				}
				if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
					pass.Reportf(call.Pos(),
						"library code fabricates context.%s(): accept a ctx from the caller so cancellation and spans propagate", sel.Sel.Name)
				}
				return true
			})
		}
	}
	return nil
}

func checkCtxPosition(pass *Pass, fd *ast.FuncDecl) {
	params := fd.Type.Params
	if params == nil {
		return
	}
	pos := 0
	for _, field := range params.List {
		t := pass.TypesInfo.Types[field.Type].Type
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(t) && pos != 0 {
			pass.Reportf(field.Pos(),
				"%s takes context.Context as parameter %d: the hot-path contract is ctx-first", fd.Name.Name, pos)
		}
		pos += n
	}
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

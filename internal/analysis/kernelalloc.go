package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// KernelAlloc keeps the batched hot path at hardware speed (ROADMAP
// north star): the register-blocked tile kernels and the bitset inner
// loops must not allocate, spawn goroutines, or format — one stray
// append in a per-pixel loop is a hidden O(pixels) allocation storm
// that the benchmarks only catch after the regression ships. The
// kernel naming convention: a function whose doc comment carries the
//
//	//bfast:kernel
//
// directive is an allocation-free inner loop; the analyzer then
// rejects make/new/append, composite literals, closures, go/defer
// statements, string concatenation and fmt/log/slog/print calls inside
// its body. Arguments of panic() are exempt — precondition panics may
// format their message, since that allocation happens only on the
// failure path. All other scratch must be passed in by the caller (the
// ForEachScratchCtx per-worker pattern).
var KernelAlloc = &Analyzer{
	Name: "kernelalloc",
	Doc:  "functions marked //bfast:kernel must be allocation-free: no make/new/append, literals, closures, go/defer, or formatting",
	Run:  runKernelAlloc,
}

const kernelDirective = "//bfast:kernel"

func runKernelAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasKernelDirective(fd.Doc) {
				continue
			}
			checkKernelBody(pass, fd)
		}
	}
	return nil
}

func hasKernelDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == kernelDirective {
			return true
		}
	}
	return false
}

func checkKernelBody(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					// A precondition panic may format its message:
					// that allocation happens only on the failure
					// path, never in a surviving inner loop.
					if b.Name() == "panic" {
						return false
					}
					switch b.Name() {
					case "append", "make", "new":
						pass.Reportf(n.Pos(), "kernel %s calls %s: kernels are allocation-free, pass scratch in from the caller", name, b.Name())
					case "print", "println":
						pass.Reportf(n.Pos(), "kernel %s calls %s: kernels do not format or log", name, b.Name())
					}
				}
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
						switch pn.Imported().Name() {
						case "fmt", "log", "slog":
							pass.Reportf(n.Pos(), "kernel %s calls %s.%s: kernels do not format or log", name, pn.Imported().Name(), sel.Sel.Name)
						}
					}
				}
			}
		case *ast.CompositeLit:
			pass.Reportf(n.Pos(), "kernel %s builds a composite literal: kernels are allocation-free, hoist it to the caller", name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "kernel %s creates a closure: closures allocate and defeat inlining in the inner loop", name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "kernel %s spawns a goroutine: scheduling belongs to internal/sched, not the kernel body", name)
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "kernel %s defers: defer allocates a frame record in the inner loop", name)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypesInfo.Types[n.X].Type) {
				pass.Reportf(n.OpPos, "kernel %s concatenates strings: kernels do not build strings", name)
			}
		case *ast.MapType:
			pass.Reportf(n.Pos(), "kernel %s declares a map: map access allocates and is unpredictably cached", name)
		}
		return true
	})
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

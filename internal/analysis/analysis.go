// Package analysis is bfast-lint's static-analysis framework: a
// stdlib-only reimplementation of the slice of golang.org/x/tools'
// go/analysis model that the suite needs (Analyzer, Pass, Diagnostic,
// a package loader and a standalone driver).
//
// The design deliberately mirrors x/tools so the analyzers could be
// ported onto the real framework by swapping imports if the dependency
// ever becomes available; this container has no module proxy access and
// the repo policy is to stub or gate missing dependencies rather than
// vendor them, so the framework itself is grown here from go/ast,
// go/types and `go list -export` (which yields the same gc export data
// that x/tools' gcexportdata reads).
//
// Why the codebase machine-checks these invariants at all: the paper's
// correctness story rests on properties Go's type system cannot see —
// NaN-aware float comparisons (missing-value semantics, PAPER.md §III),
// allocation-free kernel inner loops (the batched hot path), the
// ctx-first cancellation contract and paired span lifetimes. Futhark
// gets the equivalents from its compiler; here they are encoded as the
// analyzers in this package and enforced by `make lint` and CI.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker. Run inspects a single
// type-checked package through its Pass and reports findings; it must
// not retain the Pass after returning.
type Analyzer struct {
	Name string // short lower-case identifier, used by //lint:allow
	Doc  string // one-line summary of the invariant
	Run  func(*Pass) error

	// Finish, when non-nil, runs once after every package of a
	// whole-module standalone run has been checked, and returns
	// run-wide findings — invariants that only make sense for the
	// repository as a whole (metricdoc's golden-file cross-check).
	// Partial-pattern runs skip it, since its cross-package state would
	// be incomplete.
	Finish func() []Diagnostic
}

// Diagnostic is one finding, attributed to the analyzer that produced
// it so the //lint:allow driver can match suppressions by name.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string

	// Path attributes a run-wide finding (Pos == token.NoPos, from an
	// Analyzer.Finish hook) to a file, e.g. scripts/metrics.golden.
	Path string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file. The suite's
// invariants govern production code: bit-identity tests compare floats
// with == on purpose, tests construct context.Background freely, and
// test-only oracles are free to be slow — so the
// drivers drop findings (and ignore allow annotations) in test files.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Check runs every analyzer over pkg and returns the surviving
// diagnostics: test-file findings dropped, //lint:allow suppressions
// applied, malformed and stale allow annotations reported, sorted by
// position. This is the one funnel shared by the standalone driver
// and the tests, so suppression semantics cannot drift between entry
// points.
func Check(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	kept := raw[:0]
	for _, d := range raw {
		if !IsTestFile(pkg.Fset, d.Pos) {
			kept = append(kept, d)
		}
	}
	allows, malformed := collectAllows(pkg.Fset, pkg.Files, analyzers)
	final := filterAllowed(pkg.Fset, allows, kept)
	final = append(final, malformed...)
	final = append(final, staleAllows(allows)...)
	sort.Slice(final, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(final[i].Pos), pkg.Fset.Position(final[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return final[i].Message < final[j].Message
	})
	return final, nil
}

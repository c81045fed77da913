package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// This file is a stdlib-only miniature of x/tools' analysistest: each
// fixture package lives under testdata/src/<path>, is type-checked
// against real stdlib export data (and against sibling fixture packages
// for fake deps like obs/bfast/baseline), and declares its expected
// findings inline with trailing comments of the form
//
//	expr // want `regexp` `another regexp`
//
// Every diagnostic Check produces must be matched by a want on its
// line, and every want must match a diagnostic — so the fixtures prove
// both that the analyzers fire (positives) and that they stay silent
// (negatives, by the absence of wants).

// fixtureEnv loads fixture packages. It resolves imports first from
// testdata/src (fixture-local fake packages, type-checked from source)
// and otherwise from gc export data located with `go list -export`, the
// same data the production loader uses.
type fixtureEnv struct {
	fset    *token.FileSet
	src     string
	deps    map[string]*types.Package
	exports map[string]string
	gc      types.Importer
}

func newFixtureEnv() *fixtureEnv {
	fset := token.NewFileSet()
	env := &fixtureEnv{
		fset:    fset,
		src:     filepath.Join("testdata", "src"),
		deps:    make(map[string]*types.Package),
		exports: make(map[string]string),
	}
	env.gc = importer.ForCompiler(fset, "gc", env.lookup)
	return env
}

// lookup locates gc export data for a stdlib (or module) import path,
// compiling it into the build cache on first use.
func (e *fixtureEnv) lookup(path string) (io.ReadCloser, error) {
	f, ok := e.exports[path]
	if !ok {
		out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export %s: %v", path, err)
		}
		f = strings.TrimSpace(string(out))
		if f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		e.exports[path] = f
	}
	return os.Open(f)
}

// Import implements types.Importer over the fixture tree.
func (e *fixtureEnv) Import(path string) (*types.Package, error) {
	if p, ok := e.deps[path]; ok {
		return p, nil
	}
	dir := filepath.Join(e.src, path)
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		files, err := e.parseDir(dir)
		if err != nil {
			return nil, err
		}
		conf := types.Config{Importer: e, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		tp, err := conf.Check(path, e.fset, files, nil)
		if err != nil {
			return nil, fmt.Errorf("typecheck fixture dep %s: %v", path, err)
		}
		e.deps[path] = tp
		return tp, nil
	}
	return e.gc.Import(path)
}

func (e *fixtureEnv) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(e.fset, filepath.Join(dir, ent.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	return files, nil
}

// load type-checks the fixture package under test with full types.Info.
func (e *fixtureEnv) load(t *testing.T, path string) *Package {
	t.Helper()
	files, err := e.parseDir(filepath.Join(e.src, path))
	if err != nil {
		t.Fatal(err)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: e, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	tp, err := conf.Check(path, e.fset, files, info)
	if err != nil {
		t.Fatalf("typecheck fixture %s: %v", path, err)
	}
	return &Package{Path: path, Fset: e.fset, Files: files, Types: tp, Info: info}
}

var wantStrRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants extracts the `// want ...` expectations, keyed by
// file:line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				p := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
				for _, q := range wantStrRe.FindAllString(text[len("want "):], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", key, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, s, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// runFixture checks the fixture package at path with the given
// analyzers (through the same Check funnel the drivers use) and
// compares the surviving diagnostics against the want comments.
func runFixture(t *testing.T, path string, analyzers ...*Analyzer) {
	t.Helper()
	env := newFixtureEnv()
	pkg := env.load(t, path)
	diags, err := Check(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, env.fset, pkg.Files)
	for _, d := range diags {
		p := env.fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
		matched := false
		for i, w := range wants[key] {
			if w != nil && w.MatchString(d.Message) {
				wants[key][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic (%s): %s", key, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w != nil {
				t.Errorf("%s: no diagnostic matched want %q", key, w)
			}
		}
	}
}

func TestNanGuardFixture(t *testing.T)    { runFixture(t, "nanguard", NanGuard) }
func TestKernelAllocFixture(t *testing.T) { runFixture(t, "kernelalloc", KernelAlloc) }
func TestCtxFirstFixture(t *testing.T)    { runFixture(t, "ctxfirst", CtxFirst) }
func TestSpanPairFixture(t *testing.T)    { runFixture(t, "spanpair", SpanPair) }
func TestLockPairFixture(t *testing.T)    { runFixture(t, "lockpair", LockPair) }
func TestGoLifecycleFixture(t *testing.T) { runFixture(t, "golifecycle", GoLifecycle) }
func TestAtomicGuardFixture(t *testing.T) { runFixture(t, "atomicguard", AtomicGuard) }
func TestMetricDocFixture(t *testing.T)   { runFixture(t, "metricdoc", NewMetricDoc()) }

// TestMetricDocFinishCrossCheck exercises the golden-to-code direction
// that runFixture cannot: Finish must flag the one golden family the
// fixture never registers, attributed to the golden file itself.
func TestMetricDocFinishCrossCheck(t *testing.T) {
	env := newFixtureEnv()
	pkg := env.load(t, "metricdoc")
	a := NewMetricDoc()
	if _, err := Check(pkg, []*Analyzer{a}); err != nil {
		t.Fatal(err)
	}
	diags := a.Finish()
	if len(diags) != 1 || !strings.Contains(diags[0].Message, `"svc_orphaned_total"`) {
		t.Fatalf("Finish = %+v, want exactly one orphaned-family diagnostic for svc_orphaned_total", diags)
	}
	if !strings.HasSuffix(diags[0].Path, filepath.Join("scripts", "metrics.golden")) {
		t.Fatalf("Finish diagnostic not attributed to the golden file: %+v", diags[0])
	}
}

// TestAllAnalyzersRegistered pins the suite: a new analyzer must be
// added to All() or neither driver will run it.
func TestAllAnalyzersRegistered(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v incomplete", a)
		}
		if names[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"nanguard", "kernelalloc", "ctxfirst", "spanpair", "lockpair", "golifecycle", "atomicguard", "metricdoc"} {
		if !names[want] {
			t.Errorf("analyzer %q missing from All()", want)
		}
	}
}

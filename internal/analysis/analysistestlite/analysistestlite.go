// Package analysistestlite is a minimal stand-in for
// golang.org/x/tools/go/analysis/analysistest, which depends on
// go/packages and is not part of the toolchain's vendored x/tools
// subset. It loads fixture packages from testdata/src/<path>, resolving
// every import against testdata/src as well (fixtures ship their own
// stub "sync", "sort", "persist", ... packages), runs an analyzer and its
// Requires closure, and checks the reported diagnostics against
// expectations written as trailing comments:
//
//	for k := range m { // want `map iteration feeds a snapshot payload`
//
// Each backquoted or double-quoted string after "want" is a regexp that
// must match the message of exactly one diagnostic reported on that
// line; diagnostics with no matching expectation, and expectations with
// no matching diagnostic, both fail the test.
package analysistestlite

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

type pkgData struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader parses and typechecks fixture packages rooted at testdata/src,
// memoizing so stub packages shared between fixtures check once.
type loader struct {
	fset *token.FileSet
	root string
	pkgs map[string]*pkgData
}

// Import implements types.Importer over the fixture tree.
func (l *loader) Import(path string) (*types.Package, error) {
	pd, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pd.pkg, nil
}

func (l *loader) load(path string) (*pkgData, error) {
	if pd, ok := l.pkgs[path]; ok {
		return pd, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture package %q: %v", path, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture package %q: no .go files", path)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("fixture package %q: %v", path, err)
	}
	pd := &pkgData{pkg: pkg, files: files, info: info}
	l.pkgs[path] = pd
	return pd, nil
}

// runAnalyzer runs target (and, recursively, its Requires) over one
// fixture package and returns target's diagnostics.
func runAnalyzer(t *testing.T, target *analysis.Analyzer, l *loader, pd *pkgData) []analysis.Diagnostic {
	t.Helper()
	var diags []analysis.Diagnostic
	results := make(map[*analysis.Analyzer]interface{})
	var run func(a *analysis.Analyzer) interface{}
	run = func(a *analysis.Analyzer) interface{} {
		if r, ok := results[a]; ok {
			return r
		}
		deps := make(map[*analysis.Analyzer]interface{}, len(a.Requires))
		for _, req := range a.Requires {
			deps[req] = run(req)
		}
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       l.fset,
			Files:      pd.files,
			Pkg:        pd.pkg,
			TypesInfo:  pd.info,
			TypesSizes: types.SizesFor("gc", "amd64"),
			ResultOf:   deps,
			ReadFile:   os.ReadFile,
			Report: func(d analysis.Diagnostic) {
				if a == target {
					diags = append(diags, d)
				}
			},
		}
		r, err := a.Run(pass)
		if err != nil {
			t.Fatalf("analyzer %s on %s: %v", a.Name, pd.pkg.Path(), err)
		}
		results[a] = r
		return r
	}
	run(target)
	return diags
}

// expectation is one regexp from a // want comment.
type expectation struct {
	file    string
	line    int
	source  string
	re      *regexp.Regexp
	matched bool
}

var (
	wantRE   = regexp.MustCompile(`//\s*want\s+(.*)$`)
	quotedRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")
)

// collectWants scans the raw source of every fixture file for // want
// comments.
func collectWants(t *testing.T, l *loader, pd *pkgData) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pd.files {
		filename := l.fset.Position(f.FileStart).Filename
		data, err := os.ReadFile(filename)
		if err != nil {
			t.Fatalf("reading fixture %s: %v", filename, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
				pat := q[1]
				if pat == "" && q[2] != "" {
					var err error
					pat, err = strconv.Unquote(`"` + q[2] + `"`)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %q: %v", filename, i+1, q[0], err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", filename, i+1, pat, err)
				}
				wants = append(wants, &expectation{file: filename, line: i + 1, source: pat, re: re})
			}
		}
	}
	return wants
}

// Run loads each fixture package under testdata/src, runs the analyzer,
// and compares diagnostics against the // want expectations.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l := &loader{
		fset: token.NewFileSet(),
		root: filepath.Join("testdata", "src"),
		pkgs: make(map[string]*pkgData),
	}
	for _, path := range pkgs {
		pd, err := l.load(path)
		if err != nil {
			t.Fatal(err)
		}
		wants := collectWants(t, l, pd)
		diags := runAnalyzer(t, a, l, pd)
	diag:
		for _, d := range diags {
			pos := l.fset.Position(d.Pos)
			for _, w := range wants {
				if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
					w.matched = true
					continue diag
				}
			}
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.source)
			}
		}
	}
}

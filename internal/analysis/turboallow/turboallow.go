// Package turboallow implements the //turbo:allow(<analyzer>) escape
// hatch shared by every turbo-vet analyzer. A directive comment placed on
// the offending line — or on its own line directly above it — suppresses
// that analyzer's diagnostics there:
//
//	//turbo:allow(chargepath) — ablation drains a private block on purpose
//	for pure.Pay(eps) == nil {
//
// The directive names one or more analyzers (comma-separated) and should
// carry a justification after the closing parenthesis; an annotation
// without a reason is a review smell, not a compile error.
package turboallow

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// directiveRE matches //turbo:allow(name[,name...]) with optional
// trailing justification text.
var directiveRE = regexp.MustCompile(`^//turbo:allow\(([^)]+)\)`)

// Index records, per file and line, which analyzers are allowed there.
type Index struct {
	fset *token.FileSet
	// allowed maps filename -> line -> analyzer names allowed on that
	// line or the line below it.
	allowed map[string]map[int][]string
}

// NewIndex scans every file of the pass for //turbo:allow directives.
func NewIndex(pass *analysis.Pass) *Index {
	ix := &Index{fset: pass.Fset, allowed: make(map[string]map[int][]string)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				lines := ix.allowed[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					ix.allowed[pos.Filename] = lines
				}
				for _, name := range strings.Split(m[1], ",") {
					lines[pos.Line] = append(lines[pos.Line], strings.TrimSpace(name))
				}
			}
		}
	}
	return ix
}

// Allowed reports whether a diagnostic of the named analyzer at pos is
// suppressed by a directive on the same line or the line directly above.
func (ix *Index) Allowed(pos token.Pos, analyzer string) bool {
	p := ix.fset.Position(pos)
	lines := ix.allowed[p.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{p.Line, p.Line - 1} {
		for _, name := range lines[l] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// InTestFile reports whether pos lies in a _test.go file. The invariants
// turbo-vet enforces are production-code compliance rules; tests
// legitimately construct raw stores, pay private accountants, and write
// undocumented statuses while probing failure paths.
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// PkgHasSegment reports whether the package import path contains seg as a
// whole path segment (e.g. "accountant" matches
// "repro/internal/accountant" and a fixture path "accountant").
func PkgHasSegment(pass *analysis.Pass, seg string) bool {
	for _, s := range strings.Split(pass.Pkg.Path(), "/") {
		if s == seg {
			return true
		}
	}
	return pass.Pkg.Name() == seg
}

// FuncFor returns the innermost enclosing function declaration for a
// node path produced by inspector.WithStack.
func FuncFor(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// Package errtaxonomy enforces the HTTP error taxonomy of turbo-server's
// handlers (internal/server/httpd): handler errors map typed sentinels to
// their documented status codes through the package's response writers
// (writeError and writeBody in httpd, writeJSON in a net/http handler),
// never ad hoc.
//
// In packages with a "server" path segment or name (non-test files):
//
//  1. http.Error is flagged outright — it bypasses the JSON error
//     taxonomy (and its habitual form is the naked 500). The handlers no
//     longer link net/http, so this rule has nothing to catch there; it
//     stays for the net/http adapter in internal/server, and for any
//     handler that would bring net/http back.
//
//  2. A response writer called with 500 — net/http's
//     StatusInternalServerError or httpd's own — is flagged unless the
//     same function also tests some
//     typed error with errors.Is: a 500 must be the fall-through of a
//     mapping, never the only answer to an error.
//
//  3. A response-writing function that consumes session errors must map
//     the documented sentinels: calling Answer, or AnswerPlan (the miss
//     half of a key-first probe), requires an
//     ErrBudgetExhausted (429) check. A missing errors.Is test is
//     flagged at the call.
//
// Escape hatch: //turbo:allow(errtaxonomy).
package errtaxonomy

import (
	"go/ast"
	"go/constant"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/types/typeutil"

	"repro/internal/analysis/turboallow"
)

const name = "errtaxonomy"

// Analyzer is the errtaxonomy analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "check that server handlers map typed session errors to their documented status codes",
	Run:      run,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
}

// required maps an error-producing call (by method name) to the typed
// sentinels a handler consuming it must test with errors.Is.
var required = map[string][]string{
	"Answer":     {"ErrBudgetExhausted"},
	"AnswerPlan": {"ErrBudgetExhausted"},
}

// writers are the response-writing functions, by name, whose second
// argument is the status.
var writers = map[string]bool{"writeJSON": true, "writeError": true, "writeBody": true}

// funcFacts collects, per function declaration, everything the rules
// need.
type funcFacts struct {
	decl       *ast.FuncDecl
	httpErrors []*ast.CallExpr
	write500s  []*ast.CallExpr
	writesResp bool
	sentinels  map[string]bool            // errors.Is targets seen
	triggers   map[string][]*ast.CallExpr // Answer/AnswerPlan sites
}

func calleeOf(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fn, _ := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	return fn
}

// sentinelName extracts the error-sentinel identifier from the second
// argument of errors.Is (accountant.ErrBudgetExhausted -> "ErrBudgetExhausted").
func sentinelName(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.Ident:
		return v.Name
	}
	return ""
}

// is500 reports whether the expression is the constant 500.
func is500(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return ok && v == 500
}

func gather(pass *analysis.Pass, fd *ast.FuncDecl) *funcFacts {
	ff := &funcFacts{
		decl:      fd,
		sentinels: make(map[string]bool),
		triggers:  make(map[string][]*ast.CallExpr),
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(pass, call)
		if callee == nil {
			return true
		}
		pkg := ""
		if callee.Pkg() != nil {
			pkg = callee.Pkg().Name()
		}
		switch {
		case pkg == "http" && callee.Name() == "Error":
			ff.httpErrors = append(ff.httpErrors, call)
		case writers[callee.Name()]:
			ff.writesResp = true
			if len(call.Args) >= 2 && is500(pass, call.Args[1]) {
				ff.write500s = append(ff.write500s, call)
			}
		case pkg == "errors" && callee.Name() == "Is" && len(call.Args) == 2:
			if name := sentinelName(call.Args[1]); name != "" {
				ff.sentinels[name] = true
			}
		default:
			sig, ok := callee.Type().(*types.Signature)
			if ok && sig.Recv() != nil {
				if _, tracked := required[callee.Name()]; tracked {
					ff.triggers[callee.Name()] = append(ff.triggers[callee.Name()], call)
				}
			}
		}
		return true
	})
	return ff
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !turboallow.PkgHasSegment(pass, "server") {
		return nil, nil
	}
	allow := turboallow.NewIndex(pass)

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || turboallow.InTestFile(pass, fd.Pos()) {
				continue
			}
			ff := gather(pass, fd)

			for _, call := range ff.httpErrors {
				if !allow.Allowed(call.Pos(), name) {
					pass.Reportf(call.Pos(),
						"http.Error bypasses the server's error taxonomy: respond through the JSON error writer with a documented error kind")
				}
			}
			for _, call := range ff.write500s {
				if len(ff.sentinels) == 0 && !allow.Allowed(call.Pos(), name) {
					pass.Reportf(call.Pos(),
						"naked 500: a StatusInternalServerError response must be the fall-through of a typed-error mapping (an errors.Is check in the same handler)")
				}
			}
			if !ff.writesResp {
				continue // not a response-writing function
			}
			for method, sites := range ff.triggers {
				for _, want := range required[method] {
					if ff.sentinels[want] {
						continue
					}
					call := sites[0]
					if !allow.Allowed(call.Pos(), name) {
						pass.Reportf(call.Pos(),
							"handler consumes %s errors but never maps %s to its documented status (missing errors.Is check)",
							method, want)
					}
				}
			}
		}
	}
	return nil, nil
}

// Package backendonly protects the storage-backend seam (PR 5/6): all
// cache bytes flow through the store.Backend interface and its
// fixed-layout codec.
//
// Outside internal/store, raw gob encode/decode of cache.Entry is flagged
// (also outside internal/cache, which owns the codec's gob fallback for
// pre-codec snapshots): entry bytes must go through store.EncodeValue /
// store.DecodeValue, or the backends stop storing identical bytes and
// CompareDelete's byte-equality guard silently breaks.
package backendonly

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"repro/internal/analysis/turboallow"
)

const name = "backendonly"

// Analyzer is the backendonly analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "check that cache.Entry bytes use the fixed-layout codec",
	Run:      run,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
}

// gobCodec reports whether callee is (*gob.Encoder).Encode or
// (*gob.Decoder).Decode.
func gobCodec(callee *types.Func) bool {
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Name() != "gob" {
		return false
	}
	switch callee.Name() {
	case "Encode", "Decode":
		return true
	}
	return false
}

// isCacheEntry reports whether t is cache.Entry, possibly behind
// pointers or an address-of at the call site.
func isCacheEntry(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == "Entry" && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "cache"
}

func run(pass *analysis.Pass) (interface{}, error) {
	if turboallow.PkgHasSegment(pass, "store") || turboallow.PkgHasSegment(pass, "cache") {
		return nil, nil // the storage package owns the codec, the cache its gob fallback
	}
	allow := turboallow.NewIndex(pass)

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if turboallow.InTestFile(pass, call.Pos()) {
			return
		}
		callee, _ := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if callee == nil || callee.Pkg() == nil {
			return
		}
		if !gobCodec(callee) || len(call.Args) != 1 {
			return
		}
		if t := pass.TypesInfo.TypeOf(skipAddr(call.Args[0])); t != nil && isCacheEntry(t) && !allow.Allowed(call.Pos(), name) {
			pass.Reportf(call.Pos(),
				"raw gob %s of cache.Entry: entry bytes must round-trip through store.EncodeValue/DecodeValue (fixed-layout codec)",
				callee.Name())
		}
	})
	return nil, nil
}

// skipAddr unwraps a leading &x so the argument's element type is
// inspected.
func skipAddr(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok {
		return u.X
	}
	return e
}

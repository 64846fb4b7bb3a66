// Package snapshotdet enforces byte-determinism of snapshot section
// payloads: inside a persist.Snapshotter implementation, iterating a Go
// map in order to build encoded output is flagged unless the collected
// data is sorted before use. Two captures of one quiesced session must be
// the same bytes — that is what lets a checkpoint be compared, hashed or
// diffed against the one before it, and what a crash-point test replays —
// and a payload that encodes in map-iteration order differs from itself
// run to run. core.TestSnapshotBytesDeterministic pins the property end
// to end; this analyzer catches the cause at the line that introduces it.
//
// Scope: the SnapshotPayload methods of every type in the package whose
// method set carries the Snapshotter shape (SnapshotSection /
// SnapshotPayload / StagePayload), plus every same-package function
// transitively reachable from them. Within that scope, a `range` over a
// map whose body appends to a slice or calls an encoder must be followed
// — in the same top-level function — by a sort (package sort or slices).
// Map ranges that only fill other maps are order-independent and stay
// silent. Escape hatch: //turbo:allow(snapshotdet).
package snapshotdet

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"

	"repro/internal/analysis/pkggraph"
	"repro/internal/analysis/turboallow"
)

const name = "snapshotdet"

// Analyzer is the snapshotdet analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "check that snapshot payload writers iterate maps in a deterministic (sorted) order",
	Run:      run,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
}

// snapshotterMethods is the structural shape of persist.Snapshotter; the
// analyzer matches it by name so fixture packages need not import the
// real interface.
var snapshotterMethods = []string{"SnapshotSection", "SnapshotPayload", "StagePayload"}

// snapshotPayloadRoots finds the SnapshotPayload declarations of every
// Snapshotter-shaped type in the package.
func snapshotPayloadRoots(pass *analysis.Pass, g *pkggraph.Graph) []*types.Func {
	var roots []*types.Func
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		found := 0
		var payload *types.Func
		for _, m := range snapshotterMethods {
			for i := 0; i < ms.Len(); i++ {
				if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Name() == m {
					found++
					if m == "SnapshotPayload" {
						payload = fn
					}
					break
				}
			}
		}
		if found == len(snapshotterMethods) && payload != nil {
			roots = append(roots, payload)
		}
	}
	return roots
}

// encoderCalls are the encoder-shaped method names: a stream encoder's
// Encode, a section writer's WriteSection, an io.Writer's Write, and
// persist.Encoder's Put methods.
var encoderCalls = map[string]bool{
	"Encode": true, "WriteSection": true, "Write": true,
	"PutUvarint": true, "PutInt": true, "PutBool": true, "PutFloat": true,
	"PutFloats": true, "PutBytes": true, "PutString": true,
}

// feedsEncoding reports whether the loop body builds ordered output:
// appends to a slice, or calls an encoder-shaped method (encoderCalls).
// Pure map-to-map copies are order-independent.
func feedsEncoding(body *ast.BlockStmt) bool {
	feeds := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" {
				feeds = true
			}
		case *ast.SelectorExpr:
			feeds = encoderCalls[fun.Sel.Name]
		}
		return !feeds
	})
	return feeds
}

// sortedAfter reports whether a sort call (package sort or slices)
// appears in fd's body after pos.
func sortedAfter(pass *analysis.Pass, fd *ast.FuncDecl, pos ast.Node) bool {
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos.End() {
			return true
		}
		if callee, ok := typeutilCallee(pass, call); ok {
			if p := callee.Pkg(); p != nil && (p.Name() == "sort" || p.Name() == "slices") {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// typeutilCallee resolves a call to a *types.Func via the uses map
// (enough for pkg-level sort functions and methods).
func typeutilCallee(pass *analysis.Pass, call *ast.CallExpr) (*types.Func, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	return fn, ok
}

func run(pass *analysis.Pass) (interface{}, error) {
	g := pkggraph.New(pass)
	allow := turboallow.NewIndex(pass)
	scope := g.ReachableFrom(snapshotPayloadRoots(pass, g))

	for fn := range scope {
		fd := g.Decls[fn]
		if fd == nil || turboallow.InTestFile(pass, fd.Pos()) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if !feedsEncoding(rng.Body) {
				return true
			}
			if sortedAfter(pass, fd, rng) {
				return true
			}
			if allow.Allowed(rng.Pos(), name) {
				return true
			}
			pass.Reportf(rng.Pos(),
				"map iteration feeds a snapshot payload without an intervening sort: section payloads must encode byte-deterministically")
			return true
		})
	}
	return nil, nil
}

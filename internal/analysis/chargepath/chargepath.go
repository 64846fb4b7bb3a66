// Package chargepath enforces the paper's core accounting invariant
// statically: every ε/RDP charge flows through admission, and caches fill
// only after payment.
//
// Three rules, all outside _test.go files:
//
//  1. Spend-state restores ((*accountant.Block).RestoreSpent, direct
//     RestorePayload or StagePayload calls on the accountant block) are
//     internal to internal/accountant — anywhere else, a restore could overwrite
//     composed history without the snapshot registry's validation.
//
//  2. Payment calls (Window.Pay, Block.PayRange — whatever
//     accountant.Cost they carry) appear only in designated payer
//     packages (accountant, pmw, tree, baseline,
//     core, engine). A private measurement accountant elsewhere takes a
//     //turbo:allow(chargepath) annotation with justification.
//
//  3. A cache fill ((*cache.Exact).Put, store.Backend.Set) outside the
//     storage packages must sit in a function from which an admission
//     result is reachable: the function — or a same-package function it
//     transitively calls — either invokes an accountant payment/admission
//     API (Pay, PayRange, or the batch plane's one-round AdmitBatch)
//     or obtains a result
//     value carrying a Paid field. This is the PR 5 eviction-safety
//     property: an entry is only ever written by the flight that paid
//     for it.
package chargepath

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/analysis/pkggraph"
	"repro/internal/analysis/turboallow"
)

const name = "chargepath"

// Analyzer is the chargepath analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "check that ε/RDP charges flow through admission and caches fill only after payment",
	Run:      run,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
}

// payerPackages may call the accountant's payment APIs directly: they are
// the mechanism layers whose payments ARE the admitted charges.
var payerPackages = []string{"accountant", "pmw", "tree", "baseline", "core", "engine"}

// storePackages own the cache/backend write path and are exempt from the
// admission-reachability rule (they are below it).
var storePackages = []string{"cache", "store"}

func inAny(pass *analysis.Pass, pkgs []string) bool {
	for _, p := range pkgs {
		if turboallow.PkgHasSegment(pass, p) {
			return true
		}
	}
	return false
}

// accountantFunc reports whether callee is declared in a package named
// "accountant".
func accountantFunc(callee *types.Func) bool {
	return callee != nil && callee.Pkg() != nil && callee.Pkg().Name() == "accountant"
}

// recvNamed returns the name of the callee's receiver named type ("" for
// plain functions).
func recvNamed(callee *types.Func) string {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// hasPaidResult reports whether any result of the callee is (or points
// to) a struct with a Paid field — the shape of every mechanism result
// (pmw.Result, tree.Result, core.Answer) that proves a payment happened.
func hasPaidResult(callee *types.Func) bool {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for j := 0; j < st.NumFields(); j++ {
			if st.Field(j).Name() == "Paid" {
				return true
			}
		}
	}
	return false
}

// admissionEvidence reports whether the call obtains an admission result:
// an accountant payment/admission API, or any call returning a
// Paid-carrying result.
func admissionEvidence(callee *types.Func) bool {
	if callee == nil {
		return false
	}
	if accountantFunc(callee) {
		switch callee.Name() {
		case "Pay", "PayRange", "AdmitBatch":
			// The batch plane's one-round admission verdicts (AdmitBatch)
			// are admission results like their singleton counterparts.
			return true
		}
	}
	return hasPaidResult(callee)
}

// cacheFill classifies a callee as a cache/backend write: Put on
// cache.Exact, or Set on store.Backend or *store.Mem (a type that
// embeds Backend reaches the interface's method).
func cacheFill(callee *types.Func) bool {
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	pkg, recv := callee.Pkg().Name(), recvNamed(callee)
	switch callee.Name() {
	case "Set":
		return pkg == "store" && (recv == "Backend" || recv == "Mem")
	case "Put":
		return pkg == "cache" && recv == "Exact"
	}
	return false
}

// spendMutator classifies a callee as a direct spend-state mutation on the
// accountant block.
func spendMutator(callee *types.Func) bool {
	if !accountantFunc(callee) {
		return false
	}
	switch callee.Name() {
	case "RestoreSpent":
		return true
	case "RestorePayload", "StagePayload":
		return recvNamed(callee) == "Block"
	}
	return false
}

func run(pass *analysis.Pass) (interface{}, error) {
	inAccountant := turboallow.PkgHasSegment(pass, "accountant")
	isPayerPkg := inAny(pass, payerPackages)
	isStorePkg := inAny(pass, storePackages)

	g := pkggraph.New(pass)
	allow := turboallow.NewIndex(pass)

	// Which functions directly obtain an admission result?
	direct := make(map[*types.Func]bool)
	for fn, fd := range g.Decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if admissionEvidence(g.Callee(call)) {
				direct[fn] = true
			}
			return true
		})
	}
	admitted := g.Satisfies(direct)

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		if turboallow.InTestFile(pass, call.Pos()) {
			return true
		}
		callee := g.Callee(call)
		if callee == nil {
			return true
		}
		switch {
		case spendMutator(callee):
			if !inAccountant && !allow.Allowed(call.Pos(), name) {
				pass.Reportf(call.Pos(),
					"accountant spend state mutates outside internal/accountant: %s restores only through the accountant's own snapshot sections",
					callee.Name())
			}
		case accountantFunc(callee) && (callee.Name() == "Pay" || callee.Name() == "PayRange"):
			if !isPayerPkg && !allow.Allowed(call.Pos(), name) {
				pass.Reportf(call.Pos(),
					"ε/RDP charge (%s) outside a designated payer package: charges must flow through admission, or annotate a private measurement accountant with //turbo:allow(chargepath)",
					callee.Name())
			}
		case cacheFill(callee):
			if isStorePkg || allow.Allowed(call.Pos(), name) {
				return true
			}
			fd := turboallow.FuncFor(stack)
			var fn *types.Func
			if fd != nil {
				fn, _ = pass.TypesInfo.Defs[fd.Name].(*types.Func)
			}
			if fn == nil || !admitted[fn] {
				pass.Reportf(call.Pos(),
					"cache fill (%s) with no admission result on its path: caches fill only after payment (pay-before-cache)",
					callee.Name())
			}
		}
		return true
	})
	return nil, nil
}

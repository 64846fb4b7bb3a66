// Package lockorder checks the repo's documented mutex partial order.
//
// Every named mutex in the table below has a rank; within one function
// (linear walk, loop bodies walked twice so a lock held across
// iterations is seen by the second pass), acquiring a lock while holding
// it (self-deadlock) or while holding one of equal or higher rank is
// flagged. Calls to same-package functions are summarized: calling a
// function that acquires a lower-ranked lock while a higher-ranked one is
// held is flagged too.
//
// The documented order (outermost first):
//
//	core.Session.appendMu
//	  < dataset.Dataset.writeMu
//	  < { core.Session.singleMu , tree.Tree.mu }
//	  < accountant.Block.mu
//	  < store.Mem.mu
//	  < store.pageSet.mu
//
// core.Session.appendMu is the session's one state lock: appends,
// snapshot captures, restores and the closing of the restore window take
// it, and nothing else is held when they do.
//
// accountant.Block.mu is the accountant package's only mutex: one set of
// books, one lock, nothing to nest inside the package. It is a leaf —
// nothing is acquired while it is held — so its rank only says which
// locks a payer may hold when it calls in (the session and tree locks
// above it). store.Mem.mu is the store's one lock: a store serves
// one cache and holds one arena. Nothing above it is taken under it; the
// page set's lock is, when the arena maps or unmaps a chunk.
//
// dataset.Dataset.writeMu serializes the dataset's writers; no reader
// takes it. An arrival's grow-and-warm step (core.Session.grow) runs
// under it, just before the arrival is published, and takes the tree and
// accountant locks.
//
// tree.Tree.mu is acquired twice per query under the split-phase Run
// discipline (a locked claim, an unlocked execute, a locked commit); the
// unlocked execute phase may only touch layers ranked below it (the
// accountant and the store), so the partial order is unchanged. The
// tree's stats counters are atomics and do not appear in the table.
//
// Locks not in the table are ignored. Escape hatch:
// //turbo:allow(lockorder).
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"

	"repro/internal/analysis/pkggraph"
	"repro/internal/analysis/turboallow"
)

const name = "lockorder"

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "check acquisitions of the named mutexes against the documented partial order",
	Run:      run,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
}

// Ranks maps "pkg.Type.field" of each named mutex to its position in the
// documented partial order (lower = acquired first / outermost). Tests
// substitute a fixture table.
var Ranks = map[string]int{
	"core.Session.appendMu":   20,
	"dataset.Dataset.writeMu": 25,
	"core.Session.singleMu":   30,
	"tree.Tree.mu":            30,
	"accountant.Block.mu":     55,
	"store.Mem.mu":            60,
	"store.pageSet.mu":        62,
}

// lockKey resolves recv.field (the X of X.Lock()) to its table key, or "".
func lockKey(pass *analysis.Pass, x ast.Expr) string {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() || obj.Pkg() == nil {
		return ""
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return obj.Pkg().Name() + "." + n.Obj().Name() + "." + obj.Name()
}

// lockOp classifies a statement-level call as an acquire/release of a
// table lock.
type lockOp struct {
	key     string
	acquire bool
}

func classify(pass *analysis.Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return lockOp{}, false
	}
	key := lockKey(pass, sel.X)
	if key == "" {
		return lockOp{}, false
	}
	if _, known := Ranks[key]; !known {
		return lockOp{}, false
	}
	return lockOp{key: key, acquire: acquire}, true
}

type checker struct {
	pass      *analysis.Pass
	allow     *turboallow.Index
	summaries map[*types.Func]map[string]bool
	graph     *pkggraph.Graph
}

type held struct {
	key  string
	rank int
}

// walk processes stmts linearly with the current held set, returning the
// held set at fall-through.
func (c *checker) walk(stmts []ast.Stmt, h []held) []held {
	for _, st := range stmts {
		h = c.walkStmt(st, h)
	}
	return h
}

func (c *checker) walkStmt(st ast.Stmt, h []held) []held {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			return c.walkCall(call, h, false)
		}
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held to function end: no
		// removal. A deferred acquire is nonsense; ignore.
		return c.walkCall(s.Call, h, true)
	case *ast.BlockStmt:
		return c.walk(s.List, h)
	case *ast.IfStmt:
		if s.Init != nil {
			h = c.walkStmt(s.Init, h)
		}
		c.walk(s.Body.List, append([]held(nil), h...))
		if s.Else != nil {
			c.walkStmt(s.Else, append([]held(nil), h...))
		}
		// Branch-local acquisitions that return/leak are approximated
		// away: fall-through keeps the entry set. Early-exit branches
		// that release (RUnlock-then-return) are the common shape.
		return h
	case *ast.ForStmt:
		if s.Init != nil {
			h = c.walkStmt(s.Init, h)
		}
		// Two passes: the second sees locks still held from the first
		// iteration.
		after := c.walk(s.Body.List, append([]held(nil), h...))
		c.walk(s.Body.List, after)
		return h
	case *ast.RangeStmt:
		after := c.walk(s.Body.List, append([]held(nil), h...))
		c.walk(s.Body.List, after)
		return h
	case *ast.SwitchStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.walk(cl.Body, append([]held(nil), h...))
			}
		}
		return h
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.walk(cl.Body, append([]held(nil), h...))
			}
		}
		return h
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				c.walk(cl.Body, append([]held(nil), h...))
			}
		}
		return h
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok {
				h = c.walkCall(call, h, false)
			}
		}
		return h
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if call, ok := r.(*ast.CallExpr); ok {
				h = c.walkCall(call, h, false)
			}
		}
		return h
	}
	return h
}

// walkCall handles one call statement: a lock operation, or a
// same-package call whose lock summary is checked against the held set.
func (c *checker) walkCall(call *ast.CallExpr, h []held, deferred bool) []held {
	if op, ok := classify(c.pass, call); ok {
		if !op.acquire {
			if deferred {
				return h // held to function end
			}
			for i := len(h) - 1; i >= 0; i-- {
				if h[i].key == op.key {
					return append(append([]held(nil), h[:i]...), h[i+1:]...)
				}
			}
			return h
		}
		c.checkAcquire(call.Pos(), op.key, h)
		return append(h, held{key: op.key, rank: Ranks[op.key]})
	}
	// Same-package callee: check its lock summary against what we hold.
	if fn := c.graph.Callee(call); fn != nil {
		if sum := c.summaries[fn]; len(sum) > 0 && len(h) > 0 {
			for key := range sum {
				r := Ranks[key]
				for _, held := range h {
					if held.rank > r && !c.allow.Allowed(call.Pos(), name) {
						c.pass.Reportf(call.Pos(),
							"call to %s acquires %s (rank %d) while %s (rank %d) is held: documented lock order violated",
							fn.Name(), key, r, held.key, held.rank)
					}
				}
			}
		}
	}
	return h
}

func (c *checker) checkAcquire(pos token.Pos, key string, h []held) {
	rank := Ranks[key]
	for _, hl := range h {
		switch {
		case hl.key == key:
			if !c.allow.Allowed(pos, name) {
				c.pass.Reportf(pos, "%s acquired while already held (self-deadlock)", key)
			}
		case hl.rank >= rank:
			if !c.allow.Allowed(pos, name) {
				c.pass.Reportf(pos,
					"%s (rank %d) acquired while %s (rank %d) is held: documented lock order violated",
					key, rank, hl.key, hl.rank)
			}
		}
	}
}

// summarize computes, to a fixpoint, the set of table locks each function
// may acquire (directly or through same-package calls).
func summarize(pass *analysis.Pass, g *pkggraph.Graph) map[*types.Func]map[string]bool {
	sums := make(map[*types.Func]map[string]bool, len(g.Decls))
	for fn, fd := range g.Decls {
		set := make(map[string]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if op, ok := classify(pass, call); ok && op.acquire {
					set[op.key] = true
				}
			}
			return true
		})
		sums[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range g.Decls {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := g.Callee(call); callee != nil && callee != fn {
					for key := range sums[callee] {
						if !sums[fn][key] {
							sums[fn][key] = true
							changed = true
						}
					}
				}
				return true
			})
		}
	}
	return sums
}

func run(pass *analysis.Pass) (interface{}, error) {
	g := pkggraph.New(pass)
	c := &checker{
		pass:      pass,
		allow:     turboallow.NewIndex(pass),
		graph:     g,
		summaries: summarize(pass, g),
	}
	for _, fd := range g.Decls {
		if turboallow.InTestFile(pass, fd.Pos()) {
			continue
		}
		c.walk(fd.Body.List, nil)
		// Function literals run with an unknown caller context; check
		// their bodies standalone.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				c.walk(fl.Body.List, nil)
				return false
			}
			return true
		})
	}
	return nil, nil
}

// Per-node state of the tree-structured PMW-Bypass: one histogram,
// readiness heuristic, and learning-rate position per dyadic interval.

package tree

import (
	"repro/internal/heuristic"
	"repro/internal/histogram"
	"repro/internal/interval"
	"repro/internal/pmw"
	"repro/internal/query"
)

// node holds the caching state of one dyadic interval. The sparse vectors
// live at the tree level (they are shared across the contiguous ready set
// of each query, Alg. 2), so a node is just histogram + heuristic.
type node struct {
	iv   interval.Node
	hist *histogram.Histogram
	heur heuristic.Heuristic
	lr   pmw.Schedule
	tau  float64
	// alpha is the tree-level accuracy target; margin for external
	// updates is tau*alpha.
	alpha float64
}

// estimate returns q(h) for this node's histogram.
func (n *node) estimate(q *query.Query) float64 { return n.hist.Eval(q) }

// ready reports the heuristic's routing decision.
func (n *node) ready(q *query.Query) bool { return n.heur.IsReady(n.hist, q) }

// directedUpdate applies a PMW-style update with the shared SV's sign
// (Alg. 2 ll.24-26). est is the claim-time histogram estimate, valid
// under the same epoch-intact contract as externalUpdate's.
func (n *node) directedUpdate(q *query.Query, positive bool, est float64) {
	step := n.lr.LR(n.hist.Updates())
	if !positive {
		step = -step
	}
	n.hist.UpdateMass(q, step, est)
}

// externalUpdate applies the τα-guarded external update with a DP result
// from the Laplace branch (Alg. 2 ll.32-33). It reports whether an update
// was applied. est is the node's histogram estimate for q, snapshotted by
// the claim phase; the caller only invokes this when the node's update
// epoch is unchanged since claim, so the snapshot equals what a fresh
// evaluation would return.
func (n *node) externalUpdate(q *query.Query, dpResult, est float64) bool {
	margin := n.tau * n.alpha
	step := n.lr.LR(n.hist.Updates())
	switch {
	case dpResult > est+margin:
		n.hist.UpdateMass(q, step, est)
		return true
	case dpResult < est-margin:
		n.hist.UpdateMass(q, -step, est)
		return true
	default:
		return false
	}
}

// penalize records a heuristic error for q on this node.
func (n *node) penalize(q *query.Query) { n.heur.Penalize(n.hist, q) }

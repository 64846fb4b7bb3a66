// Test-only accessors: methods no production code calls, kept for the
// package's own tests.

package tree

import (
	"repro/internal/histogram"
	"repro/internal/interval"
)

// NodeHistogram exposes a node's histogram for convergence metrics and
// warm-start tests; it returns nil when the node was never materialized.
func (t *Tree) NodeHistogram(iv interval.Node) *histogram.Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.nodes[iv]; ok {
		return n.hist
	}
	return nil
}

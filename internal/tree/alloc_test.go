//go:build !race

package tree

import (
	"testing"

	"repro/internal/interval"
)

// TestEagerWarmStartAllocs: warm-starting an arriving partition's leaf
// allocates the leaf it keeps — the node, its histogram (the struct and
// one array for weights and counters) and its heuristic — and nothing it
// throws away. (The fixture's learning-rate schedule is a constant, which
// boxes without allocating.) While a uniform histogram and a default
// heuristic were built and then replaced by the copies, and each
// histogram held two arrays, it read 9 objects.
func TestEagerWarmStartAllocs(t *testing.T) {
	f := newFix(t, func(c *Config) { c.WarmStart = true }, 1000, 1)
	f.tree.EagerWarmStart(0)
	p := 0
	allocs := testing.AllocsPerRun(300, func() {
		p++
		f.tree.EagerWarmStart(p)
	})
	if f.tree.NodeHistogram(interval.Node{Start: p, End: p}) == nil {
		t.Fatalf("no leaf made for partition %d", p)
	}
	if allocs > 4 {
		t.Errorf("an eager warm start allocates %v objects, want at most 4", allocs)
	}
}

//go:build !race

package interval

import "testing"

// TestLargestContiguousSubsetZeroAllocs: the tree's contiguous-subset
// step sorts its input, the tree's scratch, in place without reflection
// and returns a view of it. It copied the nodes and built sort.Slice's
// reflect swapper.
func TestLargestContiguousSubsetZeroAllocs(t *testing.T) {
	nodes := Split(1, 1022)
	scratch := make([]Node, len(nodes))
	if allocs := testing.AllocsPerRun(200, func() {
		for i, n := range nodes { // reversed: the sort has work to do
			scratch[len(nodes)-1-i] = n
		}
		if run, span := LargestContiguousSubset(scratch); span != 1022 || run[0] != nodes[0] {
			t.Fatalf("run %v, span %d", run, span)
		}
	}); allocs != 0 {
		t.Fatalf("LargestContiguousSubset allocates %v objects, want 0", allocs)
	}
}

// Package interval implements the binary-tree decomposition of partition
// ranges underlying Turbo's tree-structured caching objects (§4.4, Alg. 2).
//
// The node set over T time partitions is
//
//	I = {(a, b) : b−a+1 = 2^k and a ≡ 0 (mod 2^k)}
//
// i.e. the dyadic intervals of a segment tree. SPLITQUERY maps a requested
// window [a, b] to the unique smallest set of nodes covering it (the
// "min-cuts" of §4.4); a window over T partitions splits into at most
// 2·⌈log2 T⌉ + 1 nodes (and at most 2m for a window within a tree of depth
// m, the bound Thm A.7 uses).
package interval

import "fmt"

// Node is one dyadic interval [Start, End], inclusive, with
// End−Start+1 = 2^k and Start ≡ 0 mod 2^k.
type Node struct {
	Start, End int
}

// Len returns the number of partitions the node spans.
func (n Node) Len() int { return n.End - n.Start + 1 }

// IsLeaf reports whether the node covers a single partition.
func (n Node) IsLeaf() bool { return n.Start == n.End }

// Children returns the two half-nodes of a non-leaf node.
func (n Node) Children() (left, right Node) {
	if n.IsLeaf() {
		panic(fmt.Sprintf("interval: leaf %v has no children", n))
	}
	mid := n.Start + n.Len()/2
	return Node{n.Start, mid - 1}, Node{mid, n.End}
}

// String implements fmt.Stringer with the paper's [a,b] notation.
func (n Node) String() string { return fmt.Sprintf("[%d,%d]", n.Start, n.End) }

// Valid reports whether n is a dyadic node.
func (n Node) Valid() bool {
	l := n.End - n.Start + 1
	if n.Start < 0 || l <= 0 || l&(l-1) != 0 {
		return false
	}
	return n.Start%l == 0
}

// Split decomposes the window [start, end] into the minimal set of dyadic
// nodes covering it exactly, ordered left to right (SPLITQUERY, Alg. 2
// l.4). It panics on an invalid window since windows come from validated
// queries.
func Split(start, end int) []Node {
	return AppendSplit(nil, start, end)
}

// AppendSplit is Split appending into dst, for callers that reuse a
// scratch slice across queries (the tree's zero-allocation Run path).
func AppendSplit(dst []Node, start, end int) []Node {
	if start < 0 || start > end {
		panic(fmt.Sprintf("interval: bad window [%d,%d]", start, end))
	}
	a := start
	for a <= end {
		// Largest power-of-two block that starts at a (alignment) and
		// fits within the window (size).
		size := a & -a // alignment constraint; 0 means unbounded
		if a == 0 {
			size = 1 << 62
		}
		for size > end-a+1 {
			size >>= 1
		}
		dst = append(dst, Node{a, a + size - 1})
		a += size
	}
	return dst
}

// MaxSplitNodes returns the worst-case number of nodes Split can return for
// any window within [0, 2^m − 1]: 2m for m ≥ 1 (the bound used by
// Thm A.7), and 1 for m = 0.
func MaxSplitNodes(m int) int {
	if m <= 0 {
		return 1
	}
	return 2 * m
}

// LargestContiguousSubset returns the largest subset J of the given nodes
// that forms one contiguous partition range (Alg. 2 l.9;
// LARGESTCONTIGUOUSSUBSET in §A.3's notation). Nodes must be disjoint; the
// input order does not matter: nodes is sorted by Start in place (one
// insertion-sort pass for the tree's, which arrive in split order), so it
// allocates nothing. Ties prefer the leftmost run. The returned slice
// views nodes, left to right; its second return value is the number of
// partitions covered.
func LargestContiguousSubset(nodes []Node) ([]Node, int) {
	if len(nodes) == 0 {
		return nil, 0
	}
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && nodes[j].Start < nodes[j-1].Start; j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
	bestLo, bestHi, bestSpan := 0, 0, nodes[0].Len()
	lo := 0
	span := 0
	for hi := 0; hi < len(nodes); hi++ {
		if hi > 0 && nodes[hi].Start != nodes[hi-1].End+1 {
			lo = hi
			span = 0
		}
		span += nodes[hi].Len()
		if span > bestSpan {
			bestLo, bestHi, bestSpan = lo, hi, span
		}
	}
	return nodes[bestLo : bestHi+1], bestSpan
}

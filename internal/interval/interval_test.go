package interval

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNodeBasics(t *testing.T) {
	n := Node{4, 7}
	if n.Len() != 4 || n.IsLeaf() {
		t.Fatalf("node %v: len=%d leaf=%v", n, n.Len(), n.IsLeaf())
	}
	l, r := n.Children()
	if l != (Node{4, 5}) || r != (Node{6, 7}) {
		t.Fatalf("children = %v, %v", l, r)
	}
	if n.String() != "[4,7]" {
		t.Fatalf("String = %q", n.String())
	}
	leaf := Node{3, 3}
	if !leaf.IsLeaf() || leaf.Len() != 1 {
		t.Fatal("leaf misclassified")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leaf Children did not panic")
			}
		}()
		leaf.Children()
	}()
}

func TestNodeValid(t *testing.T) {
	valid := []Node{{0, 0}, {0, 1}, {2, 3}, {0, 7}, {8, 15}, {6, 6}}
	for _, n := range valid {
		if !n.Valid() {
			t.Errorf("%v should be valid", n)
		}
	}
	invalid := []Node{{1, 2}, {0, 2}, {2, 5}, {3, 4}, {-1, 0}, {5, 4}}
	for _, n := range invalid {
		if n.Valid() {
			t.Errorf("%v should be invalid", n)
		}
	}
}

func TestSplitKnownCases(t *testing.T) {
	cases := []struct {
		start, end int
		want       []Node
	}{
		{0, 0, []Node{{0, 0}}},
		{0, 3, []Node{{0, 3}}},
		{1, 1, []Node{{1, 1}}},
		{2, 4, []Node{{2, 3}, {4, 4}}},
		{1, 6, []Node{{1, 1}, {2, 3}, {4, 5}, {6, 6}}},
		{0, 6, []Node{{0, 3}, {4, 5}, {6, 6}}},
		{3, 4, []Node{{3, 3}, {4, 4}}},
		{8, 15, []Node{{8, 15}}},
	}
	for _, c := range cases {
		got := Split(c.start, c.end)
		if len(got) != len(c.want) {
			t.Fatalf("Split(%d,%d) = %v, want %v", c.start, c.end, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Split(%d,%d) = %v, want %v", c.start, c.end, got, c.want)
			}
		}
	}
}

func TestSplitProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		T := 1 + r.Intn(256)
		start := r.Intn(T)
		end := start + r.Intn(T-start)
		nodes := Split(start, end)
		// Exact cover, all dyadic, ordered.
		if !covers(nodes, start, end) {
			return false
		}
		for i, n := range nodes {
			if !n.Valid() {
				return false
			}
			if i > 0 && nodes[i-1].End >= n.Start {
				return false
			}
		}
		// Within the worst-case bound for the enclosing power of two.
		m := 0
		for 1<<m < T {
			m++
		}
		return len(nodes) <= MaxSplitNodes(m)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitRunIsSplitOfSpan: every consecutive run of a window's split is
// the split of the run's own span, for every window in [0, 129] — so a
// run is named by its span alone, which is how the tree keys its shared
// sparse vectors (a ready set is such a run).
func TestSplitRunIsSplitOfSpan(t *testing.T) {
	for start := 0; start <= 129; start++ {
		for end := start; end <= 129; end++ {
			split := Split(start, end)
			for i := range split {
				for j := i; j < len(split); j++ {
					run := split[i : j+1]
					if got := Split(run[0].Start, run[j-i].End); !slices.Equal(got, run) {
						t.Fatalf("window [%d,%d]: run %v splits as %v", start, end, run, got)
					}
				}
			}
		}
	}
}

func TestSplitMinimality(t *testing.T) {
	// The greedy split must be minimal: no two adjacent result nodes can
	// merge into a single valid dyadic node covering both.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		T := 1 + r.Intn(128)
		start := r.Intn(T)
		end := start + r.Intn(T-start)
		nodes := Split(start, end)
		for i := 1; i < len(nodes); i++ {
			merged := Node{nodes[i-1].Start, nodes[i].End}
			if merged.Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitPanics(t *testing.T) {
	for _, r := range [][2]int{{-1, 0}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%v) did not panic", r)
				}
			}()
			Split(r[0], r[1])
		}()
	}
}

func TestMaxSplitNodes(t *testing.T) {
	if MaxSplitNodes(0) != 1 || MaxSplitNodes(3) != 6 || MaxSplitNodes(6) != 12 {
		t.Fatal("MaxSplitNodes wrong")
	}
}

func TestLargestContiguousSubset(t *testing.T) {
	cases := []struct {
		name string
		in   []Node
		want []Node
		span int
	}{
		{"empty", nil, nil, 0},
		{"single", []Node{{2, 3}}, []Node{{2, 3}}, 2},
		{
			"two runs, right larger",
			[]Node{{0, 0}, {2, 3}, {4, 7}},
			[]Node{{2, 3}, {4, 7}},
			6,
		},
		{
			"two runs, left larger",
			[]Node{{0, 3}, {4, 4}, {6, 6}},
			[]Node{{0, 3}, {4, 4}},
			5,
		},
		{
			"unsorted input",
			[]Node{{4, 7}, {2, 3}, {0, 0}},
			[]Node{{2, 3}, {4, 7}},
			6,
		},
		{
			"tie prefers leftmost",
			[]Node{{0, 1}, {4, 5}},
			[]Node{{0, 1}},
			2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, span := LargestContiguousSubset(c.in)
			if span != c.span || len(got) != len(c.want) {
				t.Fatalf("got %v span=%d, want %v span=%d", got, span, c.want, c.span)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("got %v, want %v", got, c.want)
				}
			}
		})
	}
}

func TestLargestContiguousSubsetQuick(t *testing.T) {
	// The returned run must be contiguous and at least as large as every
	// other contiguous run in the input.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Build disjoint nodes from a random split of a random window,
		// then drop a random subset.
		T := 2 + r.Intn(64)
		full := Split(0, T-1)
		var sub []Node
		for _, n := range full {
			if r.Intn(2) == 0 {
				sub = append(sub, n)
			}
		}
		got, span := LargestContiguousSubset(sub)
		if len(sub) == 0 {
			return got == nil && span == 0
		}
		// Any input order: a shuffled copy finds the same run.
		shuffled := append([]Node(nil), sub...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if run, s := LargestContiguousSubset(shuffled); s != span || !slices.Equal(run, got) {
			return false
		}
		// Contiguity.
		total := 0
		for i, n := range got {
			total += n.Len()
			if i > 0 && got[i-1].End+1 != n.Start {
				return false
			}
		}
		return total == span
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAncestors checks the dyadic parent arithmetic of the ancestors
// oracle against Children: every ancestor is a valid node holding the
// partition, and each is a child of the next.
func TestAncestors(t *testing.T) {
	anc := ancestors(5, 8)
	want := []Node{{5, 5}, {4, 5}, {4, 7}, {0, 7}}
	if len(anc) != len(want) {
		t.Fatalf("ancestors = %v", anc)
	}
	for i := range want {
		if anc[i] != want[i] {
			t.Fatalf("ancestors = %v, want %v", anc, want)
		}
	}
	for i, n := range anc {
		if !n.Valid() || n.Start > 5 || n.End < 5 {
			t.Fatalf("ancestor %v is not a dyadic node holding 5", n)
		}
		if i+1 < len(anc) {
			if l, r := anc[i+1].Children(); n != l && n != r {
				t.Fatalf("%v is not a child of %v", n, anc[i+1])
			}
		}
	}
	// Non-power-of-two universe: stop before overflowing.
	anc = ancestors(5, 6)
	for _, n := range anc {
		if n.End >= 6 {
			t.Fatalf("ancestor %v exceeds universe", n)
		}
	}
}

// TestAllNodes checks Valid against the allNodes enumeration: over a
// universe of T partitions, exactly the enumerated intervals are dyadic.
func TestAllNodes(t *testing.T) {
	nodes := allNodes(4)
	want := []Node{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {0, 1}, {2, 3}, {0, 3}}
	if len(nodes) != len(want) {
		t.Fatalf("allNodes(4) = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("allNodes(4) = %v, want %v", nodes, want)
		}
	}
	// For T = 2^m the count is 2T−1.
	if got := len(allNodes(16)); got != 31 {
		t.Fatalf("allNodes(16) size = %d, want 31", got)
	}
	for _, T := range []int{1, 6, 16} {
		dyadic := map[Node]bool{}
		for _, n := range allNodes(T) {
			dyadic[n] = true
		}
		for a := 0; a < T; a++ {
			for b := a; b < T; b++ {
				if n := (Node{a, b}); n.Valid() != dyadic[n] {
					t.Fatalf("T=%d: %v Valid = %v", T, n, n.Valid())
				}
			}
		}
	}
}

func TestCovers(t *testing.T) {
	if !covers([]Node{{0, 1}, {2, 2}}, 0, 2) {
		t.Fatal("valid cover rejected")
	}
	if covers([]Node{{0, 1}}, 0, 2) {
		t.Fatal("gap accepted")
	}
	if covers([]Node{{0, 1}, {1, 2}}, 0, 2) {
		t.Fatal("overlap accepted")
	}
	if covers([]Node{{0, 3}}, 1, 2) {
		t.Fatal("overshoot accepted")
	}
}

// ancestors enumerates every dyadic node over [0, T) that contains
// partition p, leaf first.
func ancestors(p, numPartitions int) []Node {
	var out []Node
	for n := (Node{p, p}); n.End < numPartitions; {
		out = append(out, n)
		l := n.Len()
		start := n.Start - n.Start%(2*l)
		n = Node{start, start + 2*l - 1}
	}
	return out
}

// allNodes enumerates every dyadic node fully contained in [0, T), ordered
// by level then start.
func allNodes(numPartitions int) []Node {
	var out []Node
	for size := 1; size <= numPartitions; size <<= 1 {
		for start := 0; start+size <= numPartitions; start += size {
			out = append(out, Node{start, start + size - 1})
		}
	}
	return out
}

// covers reports whether the given nodes exactly tile [start, end] with no
// gaps or overlaps: the oracle the split properties are checked against.
func covers(nodes []Node, start, end int) bool {
	sorted := append([]Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	next := start
	for _, n := range sorted {
		if n.Start != next {
			return false
		}
		next = n.End + 1
	}
	return next == end+1
}

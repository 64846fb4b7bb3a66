// Allocation budgets for the miss-path executor: once the predicate's
// support is resolved, a non-private execution is a pure scan of prefix
// rows — from the first call, since no window state is built. Guarded out
// of race builds (race instrumentation allocates).

//go:build !race

package dataset

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/query"
)

// TestTrueFractionWarmZeroAllocs pins the vectorized execution over a
// resolved support at zero allocations per query from its first call,
// for a wide and a tiny support, single- and multi-partition, from
// partition 0 and past it.
func TestTrueFractionWarmZeroAllocs(t *testing.T) {
	dom := domain.MustNew(
		domain.Attribute{Name: "p", Card: 4},
		domain.Attribute{Name: "a", Card: 16},
		domain.Attribute{Name: "b", Card: 8},
	)
	ds := New(dom, 6)
	for p := 0; p < 6; p++ {
		for bin := 0; bin < dom.Size(); bin += 3 {
			if err := addCount(ds, p, bin, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	queries := map[string]*query.Query{
		// Wide support: half the domain.
		"dense": query.MustNew(dom, map[int][]int{1: {0, 1, 2, 3, 4, 5, 6, 7}}),
		// Tiny support: one bin.
		"sparse": query.MustNew(dom, map[int][]int{0: {1}, 1: {2}, 2: {3}}),
	}
	for _, q := range queries {
		q.ResolvedSupport()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for name, q := range queries {
		for _, window := range [][2]int{{2, 2}, {0, 5}, {1, 4}} {
			start, end := window[0], window[1]
			eval := func() {
				if _, _, err := ds.TrueFractionN(q, start, end); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			eval()
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("%s over [%d,%d] allocates %d on its first call, want 0", name, start, end, n)
			}
			if allocs := testing.AllocsPerRun(200, eval); allocs != 0 {
				t.Fatalf("%s over [%d,%d] allocates %.1f/op, want 0", name, start, end, allocs)
			}
		}
	}
}

// TestWindowMetaZeroAllocs: planning a window reads its metadata, the
// row count (NRows), from the published view and allocates nothing, over
// one partition and over all of them.
func TestWindowMetaZeroAllocs(t *testing.T) {
	ds := scaled(t, 16)
	for _, w := range [][2]int{{0, 15}, {15, 15}, {3, 9}} {
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := ds.NRows(w[0], w[1]); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("NRows(%d, %d) allocates %.1f/op, want 0", w[0], w[1], allocs)
		}
	}
}

// TestWindowMetaScales: a window's metadata, its row count, is one
// subtraction however many partitions the dataset holds, so NRows over
// the whole of 8,000 partitions costs within 2x of the whole of 16 (best
// of five timed runs each). While it summed the window under a read lock,
// 8,000 partitions read about 300x of 16.
func TestWindowMetaScales(t *testing.T) {
	best := func(parts int) time.Duration {
		ds := scaled(t, parts)
		const calls = 200_000
		fastest := time.Duration(math.MaxInt64)
		sink := 0
		for run := 0; run < 5; run++ {
			start := time.Now()
			for i := 0; i < calls; i++ {
				n, _ := ds.NRows(0, parts-1)
				sink += n
			}
			fastest = min(fastest, time.Since(start))
		}
		if sink == 0 {
			t.Fatal("no rows read")
		}
		return fastest / calls
	}
	small, large := best(16), best(8000)
	if large > 2*small {
		t.Fatalf("NRows over 8,000 partitions takes %v, over 16 %v: want within 2x", large, small)
	}
}

// scaled builds a dataset of parts one-row partitions.
func scaled(t *testing.T, parts int) *Dataset {
	t.Helper()
	dom := domain.MustNew(domain.Attribute{Name: "a", Card: 4})
	counts := make([][]int, parts)
	for p := range counts {
		counts[p] = []int{1, 0, 0, 0}
	}
	ds := New(dom, 0)
	if _, err := ds.Append(nil, counts...); err != nil {
		t.Fatal(err)
	}
	return ds
}

// Allocation budgets for the miss-path executor: once the predicate's
// support is resolved and the window aggregate is warm, a non-private
// execution must be a pure scan. Guarded out of race builds (race instrumentation
// allocates).

//go:build !race

package dataset

import (
	"testing"

	"repro/internal/domain"
	"repro/internal/query"
)

// TestTrueFractionWarmZeroAllocs pins the warm vectorized execution —
// resolved support, cached window aggregate — at zero allocations per
// query, for a wide and a tiny support, single- and multi-partition.
func TestTrueFractionWarmZeroAllocs(t *testing.T) {
	dom := domain.MustNew(
		domain.Attribute{Name: "p", Card: 4},
		domain.Attribute{Name: "a", Card: 16},
		domain.Attribute{Name: "b", Card: 8},
	)
	ds := New(dom, 6)
	for p := 0; p < 6; p++ {
		for bin := 0; bin < dom.Size(); bin += 3 {
			if err := ds.AddCount(p, bin, 5); err != nil {
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
	for name, q := range queries {
		for _, window := range [][2]int{{2, 2}, {0, 5}} {
			start, end := window[0], window[1]
			if _, _, err := ds.TrueFractionN(q, start, end); err != nil {
				t.Fatal(err) // resolve the support, build the window aggregate
			}
			if allocs := testing.AllocsPerRun(200, func() {
				if _, _, err := ds.TrueFractionN(q, start, end); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("%s over [%d,%d] allocates %.1f/op, want 0", name, start, end, allocs)
			}
		}
	}
}

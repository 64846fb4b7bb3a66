//go:build !race

package cache

import (
	"testing"

	"repro/internal/query"
)

// TestPutZeroAllocs: a fill hands the store its float64; with the key's
// record already in the store (the value is overwritten in place), it
// allocates nothing at all.
func TestPutZeroAllocs(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{1: {0, 2}}).WithWindow(1, 3)
	if err := c.Put(q, 0.25); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := c.Put(q, 0.5); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a fill allocates %v objects, want 0", allocs)
	}
	if v, ok := c.get(q); !ok || v != 0.5 {
		t.Fatalf("Get after the fills = %v, %v", v, ok)
	}
}

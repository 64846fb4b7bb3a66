//go:build !race

package cache

import (
	"testing"

	"repro/internal/query"
)

// TestPutZeroAllocs: a fill hands the store a pooled entry, so it boxes
// nothing into the store's FastEncoder; with the key's record already in
// the store (the same-length bytes are overwritten in place), it
// allocates nothing at all. It boxed one Entry per fill.
func TestPutZeroAllocs(t *testing.T) {
	c := newCache(t)
	q := query.MustNew(dom(), map[int][]int{1: {0, 2}}).WithWindow(1, 3)
	if err := c.Put(q, 1, 0.25, 0.1); err != nil {
		t.Fatal(err)
	}
	version := 1
	if allocs := testing.AllocsPerRun(200, func() {
		version++
		if err := c.Put(q, version, 0.5, 0.2); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a fill allocates %v objects, want 0", allocs)
	}
	if e, ok := c.Get(q, version); !ok || e.Value != 0.5 || e.Eps != 0.2 {
		t.Fatalf("Get after the fills = %+v, %v", e, ok)
	}
}

//go:build !race

package query_test

import "testing"

// TestBuildAllocBudget: a three-attribute windowed query costs the builder
// with its three value sets and outer slice, and the query with its outer
// slice, memo and one string holding both keys — no map, no second copy of
// the sets, no fmt.
func TestBuildAllocBudget(t *testing.T) {
	d := covid()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := buildExample(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("building a 3-attribute windowed query allocates %v objects, budget 8", allocs)
	}
	t.Logf("NewBuilder…Build: %v allocs/op", allocs)
}

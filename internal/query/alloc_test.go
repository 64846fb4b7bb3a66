//go:build !race

package query_test

import "testing"

// TestBuildAllocBudget: a three-attribute windowed query costs the query
// with its outer slice, its one array of values, its memo and one string
// holding both keys. The builder is a value on the caller's stack: no map,
// no slice per value set (it took 8 while it was a heap object holding
// them), no fmt.
func TestBuildAllocBudget(t *testing.T) {
	d := covid()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := buildExample(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("building a 3-attribute windowed query allocates %v objects, budget 5", allocs)
	}
	t.Logf("NewBuilder…Build: %v allocs/op", allocs)
}

//go:build !race

package query_test

import (
	"testing"
	"unsafe"

	"repro/internal/query"
)

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

// TestBuildIntoZeroAllocs: a query its caller rebuilds statement after
// statement (a connection's scratch) allocates nothing once its arrays
// and its support's buffer have grown — neither its value sets, its keys
// (it views the caller's buffer, as a handler's does), its memo nor its
// resolved support.
func TestBuildIntoZeroAllocs(t *testing.T) {
	d := covid()
	var (
		wide, narrow query.Builder
		q            query.Query
		buf          []byte
	)
	wide.Reset(d)
	wide.Window(0, 9)
	narrow.Reset(d)
	narrow.Restrict(1, 1, 2, 3).Restrict(2, 0).Restrict(3, 0, 1, 3, 4, 7).Window(2, 5)
	rebuild := func(b *query.Builder, size int) {
		var err error
		if buf, err = b.AppendKey(buf[:0]); err != nil {
			t.Fatal(err)
		}
		if err := b.BuildInto(&q, unsafe.String(unsafe.SliceData(buf), len(buf))); err != nil {
			t.Fatal(err)
		}
		if n := len(q.ResolvedSupport().Bins()); n != size {
			t.Fatalf("support of %d bins, want %d", n, size)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		rebuild(&wide, d.Size())
		rebuild(&narrow, 3*1*5*2)
	})
	if allocs != 0 {
		t.Fatalf("rebuilding a query in place allocates %v objects, want 0", allocs)
	}
}

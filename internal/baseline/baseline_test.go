package baseline

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/noise"
	"repro/internal/query"
)

// addCount loads count rows of the encoded value bin into partition p of
// ds: a one-hot BulkLoad.
func addCount(ds *dataset.Dataset, p, bin, count int) error {
	counts := make([]int, ds.Domain().Size())
	counts[bin] = count
	return ds.BulkLoad(p, counts)
}

func build(t *testing.T, partitions int) (*domain.Domain, *dataset.Dataset) {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "p", Card: 2},
		domain.Attribute{Name: "a", Card: 4},
	)
	ds := dataset.New(dom, partitions)
	for w := 0; w < partitions; w++ {
		for a := 0; a < 4; a++ {
			_ = addCount(ds, w, dom.Encode([]int{1, a}), 1000+100*a+10*w)
			_ = addCount(ds, w, dom.Encode([]int{0, a}), 4000-100*a)
		}
	}
	return dom, ds
}

func sys(ds *dataset.Dataset, global float64, seed uint64) (*dataset.Executor, *accountant.Block) {
	return dataset.NewExecutor(ds, noise.NewRng(seed)), accountant.NewBlock(global, ds.Partitions())
}

func TestDirectLaplaceAccuracyAndLinearSpend(t *testing.T) {
	dom, ds := build(t, 1)
	exec, block := sys(ds, 1000, 3)
	lap := NewDirectLaplace(0.05, 0.001, exec, block)
	q := query.MustNew(dom, map[int][]int{0: {1}})
	truth, _ := ds.TrueFraction(q, 0, 0)
	eps := noise.EpsilonForAccuracy(0.05, 0.001, ds.NRowsAll())
	bad := 0
	for i := 1; i <= 100; i++ {
		r, err := lap.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r-truth) > 0.05 {
			bad++
		}
		if math.Abs(block.AverageSpent()-float64(i)*eps) > 1e-9 {
			t.Fatalf("spend not linear at query %d: %g", i, block.AverageSpent())
		}
	}
	if bad > 2 {
		t.Fatalf("%d/100 answers outside α", bad)
	}
}

func TestDirectLaplaceWindowCharges(t *testing.T) {
	dom, ds := build(t, 4)
	exec, block := sys(ds, 1000, 4)
	lap := NewDirectLaplace(0.05, 0.001, exec, block)
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(1, 2)
	if _, err := lap.Run(q); err != nil {
		t.Fatal(err)
	}
	if block.SpentVector()[0] != 0 || block.SpentVector()[3] != 0 {
		t.Fatal("partitions outside window charged")
	}
	if block.SpentVector()[1] == 0 || block.SpentVector()[2] == 0 {
		t.Fatal("window partitions not charged")
	}
}

func TestDirectLaplaceExhaustion(t *testing.T) {
	dom, ds := build(t, 1)
	exec, block := sys(ds, 1e-9, 5)
	lap := NewDirectLaplace(0.05, 0.001, exec, block)
	if _, err := lap.Run(query.MustNew(dom, nil)); !errors.Is(err, accountant.ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
}

func TestExactCacheRepeatsAreFree(t *testing.T) {
	dom, ds := build(t, 1)
	exec, block := sys(ds, 1000, 7)
	ec := NewExactCache(0.05, 0.001, exec, block)
	q := query.MustNew(dom, map[int][]int{0: {1}})
	r1, err := ec.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	spent := block.AverageSpent()
	for i := 0; i < 10; i++ {
		r2, err := ec.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if r2 != r1 {
			t.Fatal("cache returned different value for identical query")
		}
	}
	if block.AverageSpent() != spent {
		t.Fatal("repeat queries consumed budget")
	}
	hits, _ := ec.cache.Stats()
	if hits != 10 {
		t.Fatalf("hits = %d", hits)
	}
}

// TestExactCacheInvalidatedByDataChange: the one change a served dataset
// takes is an arrival, and it changes a windowless query's window, the
// whole store, so the release cached before it is not served after it:
// the query re-executes over the grown store and pays for the new
// partition, then repeats free. A load into a served partition is
// refused, and the release keeps serving.
func TestExactCacheInvalidatedByDataChange(t *testing.T) {
	dom, ds := build(t, 1)
	exec, block := sys(ds, 1000, 8)
	ec := NewExactCache(0.05, 0.001, exec, block)
	q := query.MustNew(dom, map[int][]int{0: {1}})
	if _, err := ec.Run(q); err != nil {
		t.Fatal(err)
	}
	if err := addCount(ds, 0, 0, 5); err == nil {
		t.Fatal("load into a partition the cache serves accepted")
	}
	spent := block.AverageSpent()
	if _, err := ec.Run(q); err != nil || block.AverageSpent() != spent {
		t.Fatalf("repeat after the refused load: %v, spent %g, want a free hit", err, block.AverageSpent()-spent)
	}
	block.AddPartition()
	if _, err := ds.Append(nil, ds.PartitionCounts(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ec.Run(q); err != nil {
		t.Fatal(err)
	}
	grown := block.SpentVector()[1]
	if grown <= 0 {
		t.Fatal("release of the store before the arrival served after it")
	}
	if _, err := ec.Run(q); err != nil || block.SpentVector()[1] != grown {
		t.Fatalf("repeat over the grown store: %v, want a free hit", err)
	}
}

// TestCachingBaselinesServeTheirDataset: both caching baselines mark their
// dataset served, so a load into it is refused; Direct Laplace caches
// nothing and leaves it open.
func TestCachingBaselinesServeTheirDataset(t *testing.T) {
	for name, build1 := range map[string]func(*dataset.Executor, *accountant.Block) System{
		"exact-cache":      func(e *dataset.Executor, b *accountant.Block) System { return NewExactCache(0.05, 0.001, e, b) },
		"tree-exact-cache": func(e *dataset.Executor, b *accountant.Block) System { return NewTreeExactCache(0.05, 0.001, e, b) },
		"laplace":          func(e *dataset.Executor, b *accountant.Block) System { return NewDirectLaplace(0.05, 0.001, e, b) },
	} {
		_, ds := build(t, 2)
		exec, block := sys(ds, 1000, 3)
		build1(exec, block)
		err := addCount(ds, 1, 0, 5)
		if caching := name != "laplace"; caching != (err != nil) {
			t.Fatalf("%s: load into its dataset: %v", name, err)
		}
	}
}

func TestTreeExactCacheSharesSubresults(t *testing.T) {
	dom, ds := build(t, 8)
	exec, block := sys(ds, 1000, 9)
	tc := NewTreeExactCache(0.05, 0.001, exec, block)
	// [0,3] splits to node [0,3]; later [0,5] reuses it and only pays for
	// [4,5].
	q1 := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 3)
	if _, err := tc.Run(q1); err != nil {
		t.Fatal(err)
	}
	spent45 := block.SpentVector()[4]
	if spent45 != 0 {
		t.Fatal("untouched partition charged")
	}
	spent0 := block.SpentVector()[0]
	q2 := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 5)
	if _, err := tc.Run(q2); err != nil {
		t.Fatal(err)
	}
	if block.SpentVector()[0] != spent0 {
		t.Fatal("cached node re-paid")
	}
	if block.SpentVector()[4] == 0 {
		t.Fatal("new node not paid")
	}
	hits, _ := tc.cache.Stats()
	if hits != 1 {
		t.Fatalf("node cache hits = %d, want 1", hits)
	}
}

func TestTreeExactCacheAccuracy(t *testing.T) {
	dom, ds := build(t, 8)
	exec, block := sys(ds, 10000, 10)
	tc := NewTreeExactCache(0.05, 0.001, exec, block)
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(1, 6)
	truth, _ := ds.TrueFraction(q, 1, 6)
	r, err := tc.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-truth) > 0.05 {
		t.Fatalf("combined answer %g vs truth %g", r, truth)
	}
}

func TestTreeExactCacheCostsMoreThanFlatPerMiss(t *testing.T) {
	// The pessimistic per-node calibration makes a single cold window
	// more expensive than the flat Exact-Cache on the same window — the
	// §6.4 observation that lets the flat cache win on small pools.
	dom, ds := build(t, 8)
	execA, blockA := sys(ds, 10000, 11)
	flat := NewExactCache(0.05, 0.001, execA, blockA)
	execB, blockB := sys(ds, 10000, 12)
	treeC := NewTreeExactCache(0.05, 0.001, execB, blockB)
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(1, 6) // splits into 3 nodes
	if _, err := flat.Run(q); err != nil {
		t.Fatal(err)
	}
	if _, err := treeC.Run(q); err != nil {
		t.Fatal(err)
	}
	if slices.Max(blockB.SpentVector()) <= slices.Max(blockA.SpentVector()) {
		t.Fatalf("tree miss %g not more expensive than flat miss %g",
			slices.Max(blockB.SpentVector()), slices.Max(blockA.SpentVector()))
	}
}

func TestLaplaceHistogramOneShot(t *testing.T) {
	dom, ds := build(t, 1)
	exec, block := sys(ds, 1000, 13)
	lh := NewLaplaceHistogram(0.05, 0.001, exec, block, noise.NewRng(99))
	if block.AverageSpent() != 0 {
		t.Fatal("paid before first query")
	}
	q1 := query.MustNew(dom, map[int][]int{0: {1}})
	truth, _ := ds.TrueFraction(q1, 0, 0)
	r, err := lh.Run(q1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-truth) > 0.05 {
		t.Fatalf("histogram answer %g vs truth %g", r, truth)
	}
	paid := block.AverageSpent()
	want := noise.LaplaceHistogramEpsilon(0.05, 0.001, ds.NRowsAll(), dom.Size())
	if math.Abs(paid-want) > 1e-12 {
		t.Fatalf("one-shot cost %g, want %g", paid, want)
	}
	// Everything after is post-processing: free, any query.
	for a := 0; a < 4; a++ {
		if _, err := lh.Run(query.MustNew(dom, map[int][]int{1: {a}})); err != nil {
			t.Fatal(err)
		}
	}
	if block.AverageSpent() != paid {
		t.Fatal("post-processing consumed budget")
	}
}

func TestLaplaceHistogramEmptyDataset(t *testing.T) {
	dom := domain.MustNew(domain.Attribute{Name: "x", Card: 2})
	ds := dataset.New(dom, 1)
	exec, block := sys(ds, 1000, 14)
	lh := NewLaplaceHistogram(0.05, 0.001, exec, block, noise.NewRng(1))
	if _, err := lh.Run(query.MustNew(dom, nil)); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestSystemsShareInterface(t *testing.T) {
	dom, ds := build(t, 2)
	exec, block := sys(ds, 1000, 15)
	systems := []System{
		NewDirectLaplace(0.05, 0.001, exec, block),
		NewExactCache(0.05, 0.001, exec, block),
		NewTreeExactCache(0.05, 0.001, exec, block),
		NewLaplaceHistogram(0.05, 0.001, exec, block, noise.NewRng(2)),
	}
	q := query.MustNew(dom, map[int][]int{0: {1}})
	for _, s := range systems {
		if _, err := s.Run(q); err != nil {
			t.Fatalf("%T: %v", s, err)
		}
	}
}

package tree

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/noise"
	"repro/internal/query"
)

// buildConcurrentTree creates a sharded tree over a 16-partition dataset
// with enough rows per partition for meaningful queries.
func buildConcurrentTree(t *testing.T, shards int) (*Tree, *dataset.Dataset) {
	t.Helper()
	dom := domain.MustNew(
		domain.Attribute{Name: "a", Card: 4},
		domain.Attribute{Name: "b", Card: 4},
	)
	parts := 16
	ds := dataset.New(dom, parts)
	rng := noise.NewRng(7)
	for p := 0; p < parts; p++ {
		for bin := 0; bin < dom.Size(); bin++ {
			if err := ds.AddCount(p, bin, 50+rng.IntN(100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tr, err := New(Config{
		Alpha: 0.1, Beta: 0.01, Tau: 0.05,
		Shards: shards,
	}, dataset.NewExecutor(ds, noise.NewRng(8)), accountant.NewBlock(20, parts), noise.NewRng(9))
	if err != nil {
		t.Fatal(err)
	}
	return tr, ds
}

// TestConcurrentDisjointWindows fires queries over disjoint and
// overlapping windows from many goroutines; run with -race. Budget
// accounting must stay within the per-partition global guarantee.
func TestConcurrentDisjointWindows(t *testing.T) {
	tr, ds := buildConcurrentTree(t, 4)
	dom := ds.Domain()
	pool := []*query.Query{
		query.MustNew(dom, map[int][]int{0: {1}}),
		query.MustNew(dom, map[int][]int{1: {2, 3}}),
		query.MustNew(dom, map[int][]int{0: {0}, 1: {1}}),
	}
	windows := [][2]int{{0, 3}, {4, 7}, {8, 11}, {12, 15}, {0, 7}, {8, 15}, {0, 15}, {2, 9}}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				win := windows[(w+i)%len(windows)]
				q := pool[i%len(pool)].WithWindow(win[0], win[1])
				if _, err := tr.Run(q); err != nil && !errors.Is(err, accountant.ErrBudgetExhausted) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	block := tr.block
	for i := 0; i < ds.Partitions(); i++ {
		if s := block.SpentAt(i); s > block.Global()+1e-9 {
			t.Fatalf("partition %d overspent: %g > %g", i, s, block.Global())
		}
	}
	if tr.Stats().Queries == 0 {
		t.Fatal("no queries recorded")
	}
}

// TestShardedMatchesSerialShape checks a sharded tree still answers
// accurately when driven serially.
func TestShardedMatchesSerialShape(t *testing.T) {
	tr, ds := buildConcurrentTree(t, 4)
	dom := ds.Domain()
	q := query.MustNew(dom, map[int][]int{0: {1}}).WithWindow(0, 15)
	res, err := tr.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ds.TrueFraction(q, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Value - truth; diff > 0.2 || diff < -0.2 {
		t.Fatalf("answer %g too far from truth %g", res.Value, truth)
	}
	if tr.StateShards() == 0 {
		t.Fatal("no shards materialized")
	}
}

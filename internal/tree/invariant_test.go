// Concurrency invariants of the three-phase Run, pinned under -race: no
// payment is ever lost or double-spent across phase interleavings, and
// every node histogram stays a distribution no matter how commits
// interleave.

package tree

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/accountant"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/interval"
	"repro/internal/noise"
	"repro/internal/query"
)

// storm fires overlapping-window queries from many goroutines and returns
// the sum of reported payments (error-free queries only) and the number of
// queries that completed.
func storm(t *testing.T, tr *Tree, workers, perWorker int) (paidSum float64, done int) {
	t.Helper()
	dom := tr.exec.Dataset().Domain()
	pool := []*query.Query{
		query.MustNew(dom, map[int][]int{0: {1}}),
		query.MustNew(dom, map[int][]int{1: {2, 3}}),
		query.MustNew(dom, map[int][]int{0: {0}, 1: {1}}),
	}
	windows := [][2]int{{0, 3}, {4, 7}, {8, 11}, {12, 15}, {0, 7}, {8, 15}, {0, 15}, {2, 9}, {5, 12}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				win := windows[(w*3+i)%len(windows)]
				q := pool[(w+i)%len(pool)].WithWindow(win[0], win[1])
				res, err := tr.Run(q)
				if err != nil {
					if !errors.Is(err, accountant.ErrBudgetExhausted) {
						t.Errorf("worker %d: %v", w, err)
					}
					return
				}
				mu.Lock()
				paidSum += res.Paid
				done++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return paidSum, done
}

// TestNoDoubleSpendUnderStorm: with ample budget (no query errors), the
// per-partition spend the block records must equal, to rounding, the sum
// of payments the queries reported — a payment applied twice (claim and
// commit both initializing one SV, say) or applied without being reported
// breaks the equality from opposite sides.
func TestNoDoubleSpendUnderStorm(t *testing.T) {
	// Effectively unlimited budget so no Run errors mid-way (partial
	// payments of an errored query are kept by design and would not
	// appear in any reported Paid).
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
		Shards: 4,
	}, dataset.NewExecutor(ds, noise.NewRng(8)), accountant.NewBlock(1e9, parts), noise.NewRng(9))
	if err != nil {
		t.Fatal(err)
	}
	paidSum, done := storm(t, tr, 8, 30)
	if done == 0 {
		t.Fatal("storm completed no queries")
	}
	spent := 0.0
	for i := 0; i < ds.Partitions(); i++ {
		spent += tr.block.SpentAt(i)
	}
	if diff := math.Abs(spent - paidSum); diff > 1e-6*math.Max(1, spent) {
		t.Fatalf("block spend %g != reported payments %g (diff %g)", spent, paidSum, diff)
	}
}

// TestEstimateConsistencyUnderStorm: after an overlapping-window storm,
// every materialized node histogram is still a normalized distribution —
// a torn or doubly-applied multiplicative-weights update would leave mass
// off 1 — and the stale-skip accounting is consistent with the stats.
func TestEstimateConsistencyUnderStorm(t *testing.T) {
	tr, ds := buildConcurrentTree(t, 4)
	if _, done := storm(t, tr, 8, 30); done == 0 {
		t.Fatal("storm completed no queries")
	}
	checked := 0
	for _, iv := range interval.AllNodes(ds.Partitions()) {
		h := tr.NodeHistogram(iv)
		if h == nil {
			continue
		}
		checked++
		if !h.Normalized(1e-9) {
			t.Fatalf("node %v histogram not normalized after storm", iv)
		}
	}
	if checked == 0 {
		t.Fatal("storm materialized no nodes")
	}
	if st := tr.Stats(); st.StaleSkips < 0 || st.Queries == 0 {
		t.Fatalf("implausible stats after storm: %+v", st)
	}
}

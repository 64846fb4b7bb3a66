package tree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/accountant"
	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/domain"
	"repro/internal/noise"
	"repro/internal/query"
	"repro/internal/store"
)

// TestNodeCacheHoldsOnlyServable is the property behind the fill gate: over
// random accuracy targets, both structures, and static or growing
// partition sets with skewed row counts, every entry the node cache holds
// passes servable at the current m_max and its window's row count. A
// prefilled servable entry per trial keeps the namespace from being
// trivially empty.
func TestNodeCacheHoldsOnlyServable(t *testing.T) {
	dom := domain.MustNew(
		domain.Attribute{Name: "p", Card: 2},
		domain.Attribute{Name: "a", Card: 4},
	)
	rng := rand.New(rand.NewSource(17))
	load := func(ds *dataset.Dataset, w int) {
		// Some partitions hold a few rows and some many, so a Laplace set's
		// row weights are far from even.
		scale := 1 + rng.Intn(50)*rng.Intn(2)
		for a := 0; a < 4; a++ {
			_ = ds.AddCount(w, dom.Encode([]int{1, a}), scale*(20+rng.Intn(100)))
			_ = ds.AddCount(w, dom.Encode([]int{0, a}), scale*(20+rng.Intn(100)))
		}
	}
	for trial := 0; trial < 32; trial++ {
		structure, streaming := Structure(trial%2), trial%4 >= 2
		alpha := 0.01 + 0.3*rng.Float64()
		beta := math.Pow(10, -0.5-3.5*rng.Float64())
		name := fmt.Sprintf("trial %d (%v, streaming %v, α %.3f, β %.2g)", trial, structure, streaming, alpha, beta)

		parts := 8
		if streaming {
			parts = 2
		}
		ds := dataset.New(dom, parts)
		for w := 0; w < parts; w++ {
			load(ds, w)
		}
		mem := store.NewMem(store.MemConfig{})
		block := accountant.NewBlock(1e9, parts)
		r := noise.NewRng(uint64(trial) + 1)
		tr, err := New(Config{
			Alpha: alpha, Beta: beta, Tau: 0.25,
			Structure: structure, WarmStart: streaming, NodeExactCache: true,
		}, dataset.NewExecutor(ds, r.Fork()), block, mem, r.Fork())
		if err != nil {
			t.Fatal(err)
		}
		prefill := query.MustNew(dom, map[int][]int{0: {0}}).WithWindow(0, 0)
		version, err := ds.RangeVersion(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Cache().Put(prefill, version, 0.5, 1e9); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < 120; i++ {
			if streaming && i%15 == 14 {
				w := ds.AppendPartition()
				block.AddPartition()
				load(ds, w)
			}
			n := ds.Partitions()
			s := rng.Intn(n)
			preds := map[int][]int{1: {rng.Intn(4)}}
			if rng.Intn(2) == 0 {
				preds[0] = []int{rng.Intn(2)}
			}
			if _, err := tr.Run(query.MustNew(dom, preds).WithWindow(s, s+rng.Intn(n-s))); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if tr.Stats().LaplaceSubs == 0 {
			t.Fatalf("%s: no Laplace release, so no fill was ever offered", name)
		}

		mMax := tr.maxSplit()
		held := mem.ExportNamespace("tree-node")
		if len(held) == 0 {
			t.Fatalf("%s: the prefilled entry is gone", name)
		}
		for key, v := range held {
			var e cache.Entry
			if !e.DecodeFast(v) {
				t.Fatalf("%s: %q does not decode", name, key)
			}
			start, end, windowed, err := query.KeyWindow(key)
			if err != nil || !windowed {
				t.Fatalf("%s: key %q: windowed %v, %v", name, key, windowed, err)
			}
			version, rows, err := ds.WindowMeta(start, end)
			if err != nil {
				t.Fatal(err)
			}
			if e.Version != version || !tr.servable(e.Eps, mMax, rows) {
				t.Fatalf("%s: node cache holds %q at ε %g, version %d (now %d): not servable at m_max %d over %d rows",
					name, key, e.Eps, e.Version, version, mMax, rows)
			}
		}
	}
}

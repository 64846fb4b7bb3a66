package dataset

import (
	"math/rand/v2"
	"testing"

	"repro/internal/domain"
	"repro/internal/query"
)

// TestWarmBatchDedupesSharedState pins the warm-up's contract: each
// distinct multi-partition window of the batch gets exactly one aggregate,
// a repeat — in the same batch, a later one, or the execution itself —
// finds it instead of rebuilding, and ingestion makes the next warm-up
// rebuild the windows it touched and no others.
func TestWarmBatchDedupesSharedState(t *testing.T) {
	dom := domain.MustNew(
		domain.Attribute{Name: "a", Card: 4},
		domain.Attribute{Name: "b", Card: 8},
	)
	ds := New(dom, 4)
	rng := rand.New(rand.NewPCG(3, 4))
	for p := 0; p < 4; p++ {
		loadRandom(t, ds, p, rng)
	}
	items := []BatchQuery{
		{Start: 0, End: 3},
		{Start: 0, End: 3},  // duplicate window
		{Start: 1, End: 1},  // single-partition: no aggregate
		{Start: 2, End: 99}, // malformed window: skipped
		{Start: 0, End: 1},
	}
	ds.WarmBatch(items)
	built := func() map[int64]*winAgg {
		ds.aggMu.RLock()
		defer ds.aggMu.RUnlock()
		out := make(map[int64]*winAgg, len(ds.aggs))
		for k, a := range ds.aggs {
			out[k] = a
		}
		return out
	}
	first := built()
	if len(first) != 2 || first[aggKey(0, 3)] == nil || first[aggKey(0, 1)] == nil {
		t.Fatalf("WarmBatch built %d aggregates, want one each for [0,3] and [0,1]", len(first))
	}

	// The warmed state must be what execution consults, and what a second
	// warm-up finds: a rebuild would replace the aggregate's pointer.
	q := query.MustNew(dom, map[int][]int{0: {2}})
	got, err := ds.TrueFraction(q, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ds.trueFractionWalk(q, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("warmed evaluation %g != walk %g", got, want)
	}
	ds.WarmBatch(items)
	for k, a := range built() {
		if first[k] != a {
			t.Fatalf("window %#x was rebuilt with its data unchanged", k)
		}
	}

	// Ingestion into partition 2 stales [0,3] only.
	if err := ds.AddCount(2, 0, 7); err != nil {
		t.Fatal(err)
	}
	ds.WarmBatch(items)
	after := built()
	if after[aggKey(0, 3)] == first[aggKey(0, 3)] {
		t.Fatal("window [0,3] not rebuilt after ingestion into partition 2")
	}
	if after[aggKey(0, 1)] != first[aggKey(0, 1)] {
		t.Fatal("window [0,1] rebuilt though ingestion never touched it")
	}
}

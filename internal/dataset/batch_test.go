package dataset

import (
	"math/rand/v2"
	"testing"

	"repro/internal/domain"
	"repro/internal/query"
)

// maskDomain is a domain large enough that a one-value predicate on the
// first attribute clears the masked-sum crossover (support 64 bins,
// domain 256 bins = 4 words, crossover 2×4=8 ≤ 64).
func maskDomain(t *testing.T) *domain.Domain {
	t.Helper()
	return domain.MustNew(
		domain.Attribute{Name: "a", Card: 4},
		domain.Attribute{Name: "b", Card: 8},
		domain.Attribute{Name: "c", Card: 8},
	)
}

func TestMaskStatsCountHitsMissesEvictions(t *testing.T) {
	dom := maskDomain(t)
	ds := New(dom, 1)
	rng := rand.New(rand.NewPCG(1, 2))
	loadRandom(t, ds, 0, rng)

	q := query.MustNew(dom, map[int][]int{0: {1}})
	base := ds.MaskStats()
	if _, err := ds.TrueFraction(q, 0, 0); err != nil {
		t.Fatal(err)
	}
	st := ds.MaskStats()
	if st.Misses-base.Misses != 1 || st.Hits-base.Hits != 0 {
		t.Fatalf("first evaluation: %+v (base %+v), want one miss", st, base)
	}
	if _, err := ds.TrueFraction(q, 0, 0); err != nil {
		t.Fatal(err)
	}
	st = ds.MaskStats()
	if st.Hits-base.Hits != 1 {
		t.Fatalf("second evaluation: %+v (base %+v), want one hit", st, base)
	}

	// Overflow the memo: distinct predicates beyond maxPredMasks force
	// evictions.
	subsetVals := func(mask int) []int {
		var vals []int
		for v := 0; v < 8; v++ {
			if mask&(1<<v) != 0 {
				vals = append(vals, v)
			}
		}
		return vals
	}
	for i := 0; i < maxPredMasks+8; i++ {
		q := query.MustNew(dom, map[int][]int{
			1: subsetVals(i%255 + 1),
			2: subsetVals(i/255%255 + 1),
		})
		ds.idx.predicate(q)
	}
	if st = ds.MaskStats(); st.Evictions == 0 {
		t.Fatalf("no evictions after overflowing the memo: %+v", st)
	}
}

func TestWarmBatchDedupesSharedState(t *testing.T) {
	dom := maskDomain(t)
	ds := New(dom, 4)
	rng := rand.New(rand.NewPCG(3, 4))
	for p := 0; p < 4; p++ {
		loadRandom(t, ds, p, rng)
	}

	q := query.MustNew(dom, map[int][]int{0: {2}})
	items := []BatchQuery{
		{Query: q, Start: 0, End: 3},
		{Query: q, Start: 0, End: 3},                                                 // duplicate window + predicate
		{Query: q, Start: 1, End: 1},                                                 // single-partition: no aggregate
		{Query: query.MustNew(dom, nil), Start: 0, End: 3},                           // full support: no mask
		{Query: q, Start: 2, End: 99},                                                // malformed window: skipped
		{Query: query.MustNew(dom, map[int][]int{1: {0}, 2: {1}}), Start: 0, End: 3}, // sparse: below crossover
	}
	base := ds.MaskStats()
	ds.WarmBatch(items)
	st := ds.MaskStats()
	if st.Misses-base.Misses != 1 {
		t.Fatalf("WarmBatch built %d masks, want 1 (deduped, crossover-filtered)", st.Misses-base.Misses)
	}

	// The warmed state must be what execution consults: evaluating the
	// shared members now should be pure memo hits...
	if _, err := ds.TrueFraction(q, 0, 3); err != nil {
		t.Fatal(err)
	}
	st2 := ds.MaskStats()
	if st2.Misses != st.Misses {
		t.Fatalf("execution after warm rebuilt a mask: %+v vs %+v", st2, st)
	}
	// ...and the warmed aggregate must match the walk oracle.
	got, err := ds.TrueFraction(q, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ds.trueFractionWalk(q, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("warmed evaluation %g != walk %g", got, want)
	}
}

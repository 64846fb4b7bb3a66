package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/domain"
	"repro/internal/query"
)

// randomDomain builds a random small domain: 2-5 attributes of
// cardinality 1-7.
func randomDomain(rng *rand.Rand) *domain.Domain {
	return randomDomainOf(rng, 2+rng.IntN(4), 7)
}

// randomDomainOf builds a random domain of nattrs attributes of
// cardinality 1-maxCard.
func randomDomainOf(rng *rand.Rand, nattrs, maxCard int) *domain.Domain {
	attrs := make([]domain.Attribute, nattrs)
	for i := range attrs {
		attrs[i] = domain.Attribute{
			Name: string(rune('a' + i)),
			Card: 1 + rng.IntN(maxCard),
		}
	}
	return domain.MustNew(attrs...)
}

// edgeQueries returns the predicates at the ends of the support range
// over dom: exactly one bin, every bin, and — when some attribute has an
// even cardinality — exactly half the bins. (A support of no bins cannot
// be built: query.New refuses an empty value set.)
func edgeQueries(dom *domain.Domain, rng *rand.Rand) []*query.Query {
	one := map[int][]int{}
	var half map[int][]int
	for i := 0; i < dom.NumAttrs(); i++ {
		card := dom.Card(i)
		one[i] = []int{rng.IntN(card)}
		if half == nil && card%2 == 0 {
			half = map[int][]int{i: rng.Perm(card)[:card/2]}
		}
	}
	qs := []*query.Query{query.MustNew(dom, one), query.MustNew(dom, nil)}
	if half != nil {
		qs = append(qs, query.MustNew(dom, half))
	}
	return qs
}

// randomQuery restricts a random subset of attributes to random value
// subsets.
func randomQuery(dom *domain.Domain, rng *rand.Rand) *query.Query {
	allowed := map[int][]int{}
	for i := 0; i < dom.NumAttrs(); i++ {
		if rng.IntN(2) == 0 {
			continue
		}
		card := dom.Card(i)
		k := 1 + rng.IntN(card)
		perm := rng.Perm(card)
		allowed[i] = perm[:k]
	}
	return query.MustNew(dom, allowed)
}

// trueFractionWalk is the pre-engine evaluation: query.Eval's per-bin
// membership walk over every partition of the window. It is the oracle
// the engine's property tests compare against and the baseline
// BenchmarkTrueFractionWalk times.
func (ds *Dataset) trueFractionWalk(q *query.Query, start, end int) (float64, int, error) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if start < 0 || end >= len(ds.parts) || start > end {
		return 0, 0, fmt.Errorf("dataset: bad range [%d,%d] of %d partitions", start, end, len(ds.parts))
	}
	matched, n := 0.0, 0
	for i := start; i <= end; i++ {
		p := ds.parts[i]
		if p.n == 0 {
			continue
		}
		matched += q.Eval(p.counts)
		n += p.n
	}
	if n == 0 {
		return 0, 0, nil
	}
	return matched / float64(n), n, nil
}

// loadRandom fills partition p with random per-bin counts.
func loadRandom(t *testing.T, ds *Dataset, p int, rng *rand.Rand) {
	t.Helper()
	for bin := 0; bin < ds.Domain().Size(); bin++ {
		if c := rng.IntN(5); c > 0 {
			if err := ds.AddCount(p, bin, c); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestVectorizedMatchesWalkRandomized is the engine's property test:
// gather-sum/aggregate evaluation must equal the pre-engine per-partition
// support walk bit for bit (count vectors are integer-valued, so no
// association of the sum may differ) on randomized domains — every fourth
// one 13-16 attributes wide — datasets, predicates, and windows, with
// supports of one bin, half the bins and every bin beside the random
// ones, windows that hold no rows, and after streaming appends and
// further ingestion (window-aggregate version invalidation).
func TestVectorizedMatchesWalkRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 60; trial++ {
		dom := randomDomain(rng)
		if trial%4 == 3 {
			dom = randomDomainOf(rng, 13+rng.IntN(4), 2)
		}
		parts := 1 + rng.IntN(4)
		ds := New(dom, parts)
		for p := 0; p < parts; p++ {
			if parts > 1 && rng.IntN(4) == 0 {
				continue // an empty partition: zero rows, zero matches
			}
			loadRandom(t, ds, p, rng)
		}
		check := func(stage string) {
			qs := edgeQueries(dom, rng)
			for i := 0; i < 12; i++ {
				qs = append(qs, randomQuery(dom, rng))
			}
			for _, q := range qs {
				start := rng.IntN(ds.Partitions())
				end := start + rng.IntN(ds.Partitions()-start)
				got, gotN, err := ds.TrueFractionN(q, start, end)
				if err != nil {
					t.Fatal(err)
				}
				want, wantN, err := ds.trueFractionWalk(q, start, end)
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN {
					t.Fatalf("trial %d %s: rows %d != %d for %v over [%d,%d]",
						trial, stage, gotN, wantN, q, start, end)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d %s: vectorized %.17g != walk %.17g for %v over [%d,%d] (dom %v)",
						trial, stage, got, want, q, start, end, dom)
				}
			}
		}
		check("initial")
		// Streaming append: new partitions with fresh data, then more
		// ingestion into an old partition. Both must invalidate any cached
		// window aggregate that covers them.
		first := ds.AppendPartitions(1 + rng.IntN(2))
		loadRandom(t, ds, first, rng)
		check("post-append")
		if err := ds.AddCount(0, rng.IntN(dom.Size()), 3); err != nil {
			t.Fatal(err)
		}
		check("post-ingest")
	}
}

// TestWindowAggInvalidation pins the version stamping: a cached window
// aggregate must not serve stale counts after further ingestion.
func TestWindowAggInvalidation(t *testing.T) {
	dom := domain.MustNew(
		domain.Attribute{Name: "p", Card: 2},
		domain.Attribute{Name: "a", Card: 4},
	)
	ds := New(dom, 3)
	for p := 0; p < 3; p++ {
		if err := ds.AddCount(p, 0, 10); err != nil {
			t.Fatal(err)
		}
	}
	q := query.MustNew(dom, map[int][]int{0: {0}}) // p=0 ⇒ bins 0..3
	frac, n, err := ds.TrueFractionN(q, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1 || n != 30 {
		t.Fatalf("got (%g, %d), want (1, 30)", frac, n)
	}
	// Ingest rows the predicate does not match; the cached aggregate must
	// rebuild, not serve the old 100% fraction.
	if err := ds.AddCount(1, dom.Encode([]int{1, 0}), 30); err != nil {
		t.Fatal(err)
	}
	frac, n, err = ds.TrueFractionN(q, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(frac-0.5) > 1e-12 || n != 60 {
		t.Fatalf("after ingest got (%g, %d), want (0.5, 60)", frac, n)
	}
}

// benchWindow builds a loaded 8-partition dataset of the given domain
// size (cardinality-8 attributes plus a card-2 tail, the misspath
// ladder's shape) and a 64-predicate pool over it.
func benchWindow(b *testing.B, bins int) (*Dataset, []*query.Query) {
	b.Helper()
	var attrs []domain.Attribute
	for size := 1; size*16 <= bins; size *= 8 {
		attrs = append(attrs, domain.Attribute{Name: fmt.Sprintf("a%d", len(attrs)), Card: 8})
	}
	dom := domain.MustNew(append(attrs, domain.Attribute{Name: "tail", Card: 2})...)
	rng := rand.New(rand.NewPCG(5, 9))
	const parts = 8
	ds := New(dom, parts)
	counts := make([]int, dom.Size())
	for p := 0; p < parts; p++ {
		for i := range counts {
			counts[i] = rng.IntN(10)
		}
		counts[0]++ // never an empty partition
		if err := ds.BulkLoad(p, counts); err != nil {
			b.Fatal(err)
		}
	}
	pool := make([]*query.Query, 64)
	for i := range pool {
		pool[i] = randomQuery(dom, rng)
	}
	return ds, pool
}

var benchSink float64

// benchTrueFraction times eval over the full window, cycling the pool;
// one untimed pass first resolves the pool's supports and builds the
// window aggregate.
func benchTrueFraction(b *testing.B, eval func(*Dataset, *query.Query, int, int) (float64, int, error)) {
	for _, bins := range []int{128, 1024, 8192, 65536} {
		ds, pool := benchWindow(b, bins)
		b.Run(fmt.Sprintf("N=%d", ds.Domain().Size()), func(b *testing.B) {
			for _, q := range pool {
				if _, _, err := eval(ds, q, 0, ds.Partitions()-1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, _, err := eval(ds, pool[i%len(pool)], 0, ds.Partitions()-1)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += f
			}
		})
	}
}

// BenchmarkTrueFraction is the engine (gather-sum + window aggregate);
// BenchmarkTrueFractionWalk is the pre-engine per-partition walk on the
// same datasets and predicates — the engine's before/after.
func BenchmarkTrueFraction(b *testing.B) { benchTrueFraction(b, (*Dataset).TrueFractionN) }

func BenchmarkTrueFractionWalk(b *testing.B) { benchTrueFraction(b, (*Dataset).trueFractionWalk) }

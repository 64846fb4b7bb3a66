package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
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

// PartitionState is one partition of the model a test keeps beside a
// dataset: its per-bin counts and its row count.
type PartitionState struct {
	Counts []float64
	N      int
}

// partsOf reads ds back into the model's form, one PartitionState per
// partition.
func partsOf(ds *Dataset) []PartitionState {
	out := make([]PartitionState, ds.Partitions())
	for p := range out {
		counts := ds.PartitionCounts(p)
		out[p].Counts = make([]float64, len(counts))
		for b, c := range counts {
			out[p].Counts[b] = float64(c)
			out[p].N += c
		}
	}
	return out
}

// countsOf returns every partition's per-bin counts: the batch an Append
// into an empty dataset rebuilds ds from.
func countsOf(ds *Dataset) [][]int {
	out := make([][]int, ds.Partitions())
	for p := range out {
		out[p] = ds.PartitionCounts(p)
	}
	return out
}

// walk is the pre-engine evaluation: query.Eval's per-bin membership
// walk over every partition of the window, read from per-partition count
// vectors. It is the oracle the engine's property tests compare against
// and the baseline BenchmarkTrueFractionWalk times.
func walk(q *query.Query, parts []PartitionState, start, end int) (float64, int, error) {
	if start < 0 || end >= len(parts) || start > end {
		return 0, 0, fmt.Errorf("dataset: bad range [%d,%d] of %d partitions", start, end, len(parts))
	}
	matched, n := 0.0, 0
	for i := start; i <= end; i++ {
		p := parts[i]
		if p.N == 0 {
			continue
		}
		matched += q.Eval(p.Counts)
		n += p.N
	}
	if n == 0 {
		return 0, 0, nil
	}
	return matched / float64(n), n, nil
}

// mirror is a dataset beside a model of it the test keeps by hand: every
// load goes to both, so the model's per-partition vectors never pass
// through the prefix rows under test.
type mirror struct {
	t     *testing.T
	ds    *Dataset
	parts []PartitionState
}

func newMirror(t *testing.T, dom *domain.Domain, parts int) *mirror {
	m := &mirror{t: t, ds: New(dom, parts)}
	m.grow(parts)
	return m
}

func (m *mirror) grow(k int) {
	for ; k > 0; k-- {
		m.parts = append(m.parts, PartitionState{Counts: make([]float64, m.ds.Domain().Size())})
	}
}

// appendParts appends one partition per entry of counts, loaded with it
// (nil: empty).
func (m *mirror) appendParts(counts ...[]int) int {
	m.t.Helper()
	first, err := m.ds.Append(nil, counts...)
	if err != nil {
		m.t.Fatal(err)
	}
	m.grow(len(counts))
	for i, c := range counts {
		for bin, v := range c {
			m.parts[first+i].Counts[bin] += float64(v)
			m.parts[first+i].N += v
		}
	}
	return first
}

func (m *mirror) addCount(p, bin, c int) {
	m.t.Helper()
	if err := addCount(m.ds, p, bin, c); err != nil {
		m.t.Fatal(err)
	}
	m.parts[p].Counts[bin] += float64(c)
	m.parts[p].N += c
}

func (m *mirror) bulkLoad(p int, counts []int) {
	m.t.Helper()
	if err := m.ds.BulkLoad(p, counts); err != nil {
		m.t.Fatal(err)
	}
	for bin, c := range counts {
		m.parts[p].Counts[bin] += float64(c)
		m.parts[p].N += c
	}
}

// randomCounts draws per-bin counts in [0,5).
func randomCounts(size int, rng *rand.Rand) []int {
	counts := make([]int, size)
	for bin := range counts {
		counts[bin] = rng.IntN(5)
	}
	return counts
}

// loadRandom fills partition p with random per-bin counts, bin by bin.
func (m *mirror) loadRandom(p int, rng *rand.Rand) {
	m.t.Helper()
	for bin, c := range randomCounts(m.ds.Domain().Size(), rng) {
		if c > 0 {
			m.addCount(p, bin, c)
		}
	}
}

// TestVectorizedMatchesWalkRandomized is the engine's property test:
// prefix-row evaluation must equal the per-partition support walk over a
// hand-kept model bit for bit (count vectors are integer-valued, so no
// association of the sum may differ) on randomized domains — every fourth
// one 13-16 attributes wide — datasets, predicates, and windows, with
// supports of one bin, half the bins and every bin beside the random
// ones, windows that hold no rows, and after streaming appends, a load
// into a partition below ones already loaded and read, further ingestion
// into partition 0, and a rebuild by one Append of every partition's counts.
func TestVectorizedMatchesWalkRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 60; trial++ {
		dom := randomDomain(rng)
		if trial%4 == 3 {
			dom = randomDomainOf(rng, 13+rng.IntN(4), 2)
		}
		parts := 1 + rng.IntN(4)
		m := newMirror(t, dom, parts)
		for p := 0; p < parts; p++ {
			if parts > 1 && rng.IntN(4) == 0 {
				continue // an empty partition: zero rows, zero matches
			}
			m.loadRandom(p, rng)
		}
		check := func(stage string, ds *Dataset) {
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
				want, wantN, err := walk(q, m.parts, start, end)
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
		check("initial", m.ds)
		// Streaming appends: empty partitions then loaded, and loaded
		// ones, read, then a load into an older partition below them (it
		// must reach every later prefix row).
		first := m.appendParts(make([][]int, 1+rng.IntN(2))...)
		m.loadRandom(first, rng)
		m.appendParts(randomCounts(dom.Size(), rng), nil)
		check("post-append", m.ds)
		m.bulkLoad(rng.IntN(m.ds.Partitions()), randomCounts(dom.Size(), rng))
		check("post-reload", m.ds)
		m.addCount(0, rng.IntN(dom.Size()), 3)
		check("post-ingest", m.ds)

		for i, p := range partsOf(m.ds) {
			if p.N != m.parts[i].N || !reflect.DeepEqual(p.Counts, m.parts[i].Counts) {
				t.Fatalf("trial %d: partition %d's counts differ from the model", trial, i)
			}
		}
		rebuilt := New(dom, 0)
		if _, err := rebuilt.Append(nil, countsOf(m.ds)...); err != nil {
			t.Fatal(err)
		}
		check("rebuilt", rebuilt)
	}
}

// TestPrefixRowsHoldNoWindowState: querying every window of a
// 50-partition dataset leaves it holding its 51 prefix rows and nothing
// else, and every window answers as the walk does.
func TestPrefixRowsHoldNoWindowState(t *testing.T) {
	dom := domain.MustNew(
		domain.Attribute{Name: "a", Card: 10},
		domain.Attribute{Name: "b", Card: 12},
		domain.Attribute{Name: "c", Card: 10},
	)
	rng := rand.New(rand.NewPCG(1, 2))
	m := newMirror(t, dom, 50)
	for p := 0; p < 50; p++ {
		m.bulkLoad(p, randomCounts(dom.Size(), rng))
	}
	q := query.MustNew(dom, map[int][]int{0: {1, 4}, 2: {0, 3, 9}})
	windows := 0
	for s := 0; s < 50; s++ {
		for e := s; e < 50; e++ {
			got, _, err := m.ds.TrueFractionN(q, s, e)
			if err != nil {
				t.Fatal(err)
			}
			if want, _, _ := walk(q, m.parts, s, e); got != want {
				t.Fatalf("[%d,%d]: %g != walk %g", s, e, got, want)
			}
			windows++
		}
	}
	if windows != 1275 || len(m.ds.cur.Load().cum) != 51 {
		t.Fatalf("%d windows left %d rows, want 1275 and 51", windows, len(m.ds.cur.Load().cum))
	}
	for i, row := range m.ds.cur.Load().cum {
		if len(row) != 1200 {
			t.Fatalf("row %d holds %d floats, want 1200", i, len(row))
		}
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

// benchTrueFraction times eval over a window from partition 0 (one
// gather on prefix rows), one from partition 1 (two) and the last
// partition alone (two: the latest-window streaming query), cycling the
// pool; one untimed pass first resolves the pool's supports.
func benchTrueFraction(b *testing.B, prep func(*Dataset) func(*query.Query, int, int) (float64, int, error)) {
	for _, bins := range []int{128, 1024, 8192, 65536} {
		ds, pool := benchWindow(b, bins)
		eval := prep(ds)
		end := ds.Partitions() - 1
		for _, start := range []int{0, 1, end} {
			b.Run(fmt.Sprintf("N=%d/from=%d", ds.Domain().Size(), start), func(b *testing.B) {
				for _, q := range pool {
					if _, _, err := eval(q, start, end); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f, _, err := eval(pool[i%len(pool)], start, end)
					if err != nil {
						b.Fatal(err)
					}
					benchSink += f
				}
			})
		}
	}
}

// BenchmarkTrueFraction is the engine (gather-sum on prefix rows);
// BenchmarkTrueFractionWalk is the pre-engine per-partition walk on the
// same datasets and predicates — the engine's before/after.
func BenchmarkTrueFraction(b *testing.B) {
	benchTrueFraction(b, func(ds *Dataset) func(*query.Query, int, int) (float64, int, error) {
		return ds.TrueFractionN
	})
}

func BenchmarkTrueFractionWalk(b *testing.B) {
	benchTrueFraction(b, func(ds *Dataset) func(*query.Query, int, int) (float64, int, error) {
		parts := partsOf(ds)
		return func(q *query.Query, start, end int) (float64, int, error) {
			return walk(q, parts, start, end)
		}
	})
}

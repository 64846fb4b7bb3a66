// The vectorized predicate-evaluation engine: a gather-sum over the
// query's resolved support plus a version-invalidated window-aggregate
// cache, so the miss path — the paper's runtime frontier once the exact
// cache cannot answer (Fig. 11d) — evaluates a conjunctive predicate as
// one pass over a flat bin list instead of query.Eval's per-bin
// membership walk.
//
// Two observations make this fast:
//
//  1. The bins a predicate selects depend only on the domain's encoding,
//     never on the data, and the query already carries them: the
//     histogram kernels resolve q.ResolvedSupport() on every miss before
//     the executor runs (memoized on the query and shared by its windowed
//     clones), so evaluation is a gather-sum over that ascending list at
//     every support size and this package keeps no predicate memo of its
//     own.
//  2. A query over partitions [s,e] needs only the window's summed count
//     vector (linearity: q·Σh = Σq·h). The window-aggregate cache keeps
//     that vector per window, stamped with the window's data version, so a
//     k-partition window costs one gather-sum instead of k predicate
//     walks. Ingestion bumps the version and the next query rebuilds —
//     this is the piece of the engine that data changes invalidate.
//
// Correctness is pinned by property tests asserting bit-for-bit equality
// with the pre-engine per-partition query.Eval walk (the oracle in
// vector_test.go) on randomized domains, predicates, and ingestion
// histories; the benchmarks there time the engine against that walk.

package dataset

import "repro/internal/query"

// maxAggBins caps the total bins resident across cached window
// aggregates (~16 MiB of float64 at the cap); insertion evicts
// arbitrary windows until under budget.
const maxAggBins = 1 << 21

// supportSum computes Σ vec[bin] over a gather list: four independent
// accumulator chains, so wide supports are not serialized on
// floating-point add latency. Count vectors hold integer-valued float64s
// well inside the 53-bit mantissa, so the sum is exact under any
// association.
func supportSum(bins []int32, vec []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(bins); i += 4 {
		b := bins[i : i+4 : i+4]
		s0 += vec[b[0]]
		s1 += vec[b[1]]
		s2 += vec[b[2]]
		s3 += vec[b[3]]
	}
	for ; i < len(bins); i++ {
		s0 += vec[bins[i]]
	}
	return (s0 + s1) + (s2 + s3)
}

// evalVec evaluates q's matched count over one count vector.
func evalVec(q *query.Query, vec []float64) float64 {
	return supportSum(q.ResolvedSupport().Bins(), vec)
}

// winAgg is one cached window aggregate: the summed count vector of
// partitions [start, end] stamped with the window's data version.
type winAgg struct {
	version int
	rows    int
	counts  []float64
}

// aggKey packs a window into the aggregate cache's map key.
func aggKey(start, end int) int64 { return int64(start)<<32 | int64(end) }

// windowAgg returns the aggregate for [start, end] at the current data
// version, rebuilding (and caching) it when the version moved. The caller
// has validated the range.
func (ds *Dataset) windowAgg(start, end, version int) *winAgg {
	key := aggKey(start, end)
	ds.aggMu.RLock()
	a := ds.aggs[key]
	ds.aggMu.RUnlock()
	if a != nil && a.version == version {
		return a
	}
	// Rebuild under the dataset read lock so the vector, row count, and
	// version stamp are one consistent snapshot.
	ds.mu.RLock()
	counts := make([]float64, ds.dom.Size())
	rows, ver := 0, 0
	for i := start; i <= end; i++ {
		p := ds.parts[i]
		for b, c := range p.counts {
			counts[b] += c
		}
		rows += p.n
		ver += p.version
	}
	ds.mu.RUnlock()
	a = &winAgg{version: ver, rows: rows, counts: counts}
	ds.aggMu.Lock()
	if ds.aggBins+len(counts) > maxAggBins {
		for k, old := range ds.aggs {
			delete(ds.aggs, k)
			ds.aggBins -= len(old.counts)
			if ds.aggBins+len(counts) <= maxAggBins {
				break
			}
		}
	}
	if old := ds.aggs[key]; old != nil {
		ds.aggBins -= len(old.counts)
	}
	ds.aggs[key] = a
	ds.aggBins += len(counts)
	ds.aggMu.Unlock()
	return a
}

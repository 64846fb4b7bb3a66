// The vectorized predicate-evaluation engine: a gather-sum over the
// query's resolved support on per-partition prefix rows, so the miss
// path — the paper's runtime frontier once the exact cache cannot answer
// (Fig. 11d) — evaluates a conjunctive predicate over any window as at
// most two passes over a flat bin list instead of query.Eval's per-bin
// membership walk over every partition.
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
//  2. A query is linear in the counts (q·Σh = Σq·h), so its count over
//     partitions [s,e] is the difference of two prefix sums:
//     q·cum[e+1] − q·cum[s], where cum[i] sums partitions [0,i) per bin
//     (Ho et al., "Range Queries in OLAP Data Cubes", SIGMOD '97). The
//     dataset keeps exactly those parts+1 rows and nothing per window, so
//     every window costs two gathers — one when s = 0 — whatever its
//     length, and ingestion has no window state to invalidate.
//
// Exactness: counts are integer-valued float64s and the dataset's total
// stays below 2^53 (MaxRows: loads and restores that would pass it are
// refused), so every prefix entry,
// every gather-sum and their difference are exact integers under any
// association. Answers are therefore bit-identical to the per-partition
// walk, which the property tests in vector_test.go assert on randomized
// domains, predicates, and ingestion histories; the benchmarks there time
// the engine against that walk.

package dataset

import "fmt"

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

// rlockWindow read-locks the dataset with [start, end] a valid window
// whose bounding prefix rows are summed; on error it returns unlocked. A
// window reaching past the watermark first sums every pending row under
// the write lock, then retries: a concurrent load keeps summed rows
// summed and an append only adds rows past them, so the retry normally
// succeeds at once.
func (ds *Dataset) rlockWindow(start, end int) error {
	ds.mu.RLock()
	for {
		if start < 0 || end >= len(ds.parts) || start > end {
			n := len(ds.parts)
			ds.mu.RUnlock()
			return fmt.Errorf("dataset: bad range [%d,%d] of %d partitions", start, end, n)
		}
		if end+1 <= ds.summed {
			return nil
		}
		ds.mu.RUnlock()
		ds.mu.Lock()
		for ; ds.summed+1 < len(ds.cum); ds.summed++ {
			prev, row := ds.cum[ds.summed], ds.cum[ds.summed+1]
			for b, c := range prev {
				row[b] += c
			}
		}
		ds.mu.Unlock()
		ds.mu.RLock()
	}
}

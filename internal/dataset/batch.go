// Batch warm-up: the dataset leg of the session's batch plane
// (core.Session.AnswerBatch).
//
// A batch of cache-missed queries typically shares structure — zipf
// workloads repeat predicates, dashboards fan one predicate across
// several windows. Executing the misses one by one rediscovers that
// sharing implicitly (the second query finds the first one's window
// aggregate and predicate mask already memoized — if it is not racing
// the first one's build). WarmBatch makes the sharing explicit: one
// pass deduplicates the batch's windows and mask-worthy predicates and
// materializes each exactly once, so the subsequent per-query
// executions all run on warm, version-stamped state instead of
// building the same aggregate or mask concurrently in parallel
// goroutines.
//
// Warming is best-effort and purely a cache operation: it deducts no
// privacy budget, returns no data, and skipping it never changes any
// answer.

package dataset

import (
	"fmt"

	"repro/internal/query"
)

// MetaSnapshot is a point-in-time copy of the dataset's public planning
// metadata: the partition count plus prefix sums of per-partition version
// and row counts. A batch planner takes it under ONE dataset lock
// acquisition and then resolves every member window's (version, rows) in
// O(1) with no further locking — where per-query planning pays two lock
// round-trips and an O(window) sum per query.
type MetaSnapshot struct {
	parts          int
	verSum, rowSum []int // prefix sums over partitions [0, i)
}

// MetaSnapshot captures the current planning metadata in one lock
// acquisition.
func (ds *Dataset) MetaSnapshot() MetaSnapshot {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	n := len(ds.parts)
	sums := make([]int, 2*(n+1))
	vs, rs := sums[:n+1], sums[n+1:]
	for i, p := range ds.parts {
		vs[i+1] = vs[i] + p.version
		rs[i+1] = rs[i] + p.n
	}
	return MetaSnapshot{parts: n, verSum: vs, rowSum: rs}
}

// Partitions returns the partition count at snapshot time.
func (m *MetaSnapshot) Partitions() int { return m.parts }

// WindowMeta resolves a window's data version and public row count
// against the snapshot, mirroring Dataset.WindowMeta.
func (m *MetaSnapshot) WindowMeta(start, end int) (version, rows int, err error) {
	if start < 0 || end >= m.parts || start > end {
		return 0, 0, fmt.Errorf("dataset: bad range [%d,%d] of %d partitions", start, end, m.parts)
	}
	return m.verSum[end+1] - m.verSum[start], m.rowSum[end+1] - m.rowSum[start], nil
}

// BatchQuery names one batched query's evaluation footprint: the
// predicate and the partition window it will execute over.
type BatchQuery struct {
	Query      *query.Query
	Start, End int
}

// MaskStats is the predicate-mask memo telemetry of the vectorized
// engine (bitindex.go), surfaced through Session.StoreStats → /schema.
type MaskStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// MaskStats returns cumulative predicate-mask memo counters.
func (ds *Dataset) MaskStats() MaskStats {
	return MaskStats{
		Hits:      int64(ds.idx.hits.Load()),
		Misses:    int64(ds.idx.misses.Load()),
		Evictions: int64(ds.idx.evictions.Load()),
	}
}

// WarmBatch materializes the shared evaluation state of a batch of
// cache-missed queries in one deduplicated pass: each distinct
// multi-partition window's aggregate vector and each distinct
// mask-worthy predicate's combined bitset, built once however many
// batch members share it. Malformed windows are skipped — the per-query
// execution will surface their errors.
func (ds *Dataset) WarmBatch(items []BatchQuery) {
	if len(items) == 0 {
		return
	}
	wins := make(map[int64]BatchQuery, len(items))
	preds := make(map[string]*query.Query, len(items))
	for _, it := range items {
		if it.Query == nil {
			continue
		}
		if it.Start != it.End {
			wins[aggKey(it.Start, it.End)] = it
		}
		// Mirror evalVec's crossover: only predicates that will take the
		// masked-sum branch benefit from a warm mask, and full-support
		// predicates shortcut to fraction 1 without evaluating at all.
		ss := it.Query.SupportSize()
		if ss >= sparseCrossoverWords*ds.idx.words && ss < ds.dom.Size() {
			preds[it.Query.Key()] = it.Query
		}
	}
	for _, it := range wins {
		version, _, err := ds.WindowMeta(it.Start, it.End)
		if err != nil {
			continue
		}
		ds.windowAgg(it.Start, it.End, version)
	}
	for _, q := range preds {
		ds.idx.predicate(q)
	}
}

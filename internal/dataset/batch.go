// Batch warm-up: the dataset leg of the session's batch plane
// (core.Session.AnswerBatch).
//
// A batch of cache-missed queries typically shares windows — dashboards
// fan many predicates across a few time ranges. Executing the misses one
// by one rediscovers that sharing implicitly (the second query finds the
// first one's window aggregate already cached — if it is not racing the
// first one's build). WarmBatch makes the sharing explicit: one
// sequential pass materializes each distinct multi-partition window's
// aggregate exactly once, so the subsequent per-query executions all run
// on warm, version-stamped state instead of building the same aggregate
// concurrently in parallel goroutines. (Predicates need no warm-up: their
// resolved support is memoized on the query itself.)
//
// Warming is best-effort and purely a cache operation: it deducts no
// privacy budget, returns no data, and skipping it never changes any
// answer.

package dataset

import "fmt"

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
// partition window it will execute over.
type BatchQuery struct {
	Start, End int
}

// WarmBatch materializes the shared evaluation state of a batch of
// cache-missed queries in one sequential pass: each distinct
// multi-partition window's aggregate vector, built once however many
// batch members share it (a repeat finds the first one's aggregate at the
// current version). Single-partition windows evaluate in place and need
// none; malformed windows are skipped — the per-query execution will
// surface their errors.
func (ds *Dataset) WarmBatch(items []BatchQuery) {
	for _, it := range items {
		if it.Start == it.End {
			continue
		}
		version, _, err := ds.WindowMeta(it.Start, it.End)
		if err != nil {
			continue
		}
		ds.windowAgg(it.Start, it.End, version)
	}
}

// The dataset leg of the session's batch plane (core.Session.AnswerBatch):
// one metadata snapshot plans the whole batch. Execution needs nothing
// batched — every window is two gathers over prefix rows that always
// exist (vector.go), and a predicate's resolved support is memoized on the
// query itself.

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
